package parallel

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// runAheadTransport is the direct transport with rank 0's first Recv held
// until some peer has sent a gather message of step 1 or later.
type runAheadTransport struct {
	machine.Transport
	rank    int
	stepped chan struct{} // closed once a peer sends tag ≥ 101
	once    *sync.Once
	expired *atomic.Bool
	waited  bool
}

func (t *runAheadTransport) Send(to, tag int, data []float64) {
	t.Transport.Send(to, tag, data)
	if t.rank != 0 && tag > 100 && tag < 200 {
		t.once.Do(func() { close(t.stepped) })
	}
}

func (t *runAheadTransport) Recv() (machine.Packet, bool) {
	if t.rank == 0 && !t.waited {
		t.waited = true
		select {
		case <-t.stepped:
		case <-time.After(2 * time.Second):
			t.expired.Store(true)
		}
	}
	return t.Transport.Recv()
}

// TestScheduledExchangeRunsAhead: the scheduled exchange has no global
// step barrier, so while rank 0 is held in its step-0 receive its peers
// move on and send their step-1 gather messages, which wait in the
// receivers' held lists. A per-step barrier would keep every peer in step
// 0 until rank 0 arrives, and the 2 s hold would expire. The Apply must
// still match an unhindered run bit for bit, meters included.
func TestScheduledExchangeRunsAhead(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1)
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(70 + q)))
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		opts := Options{Part: part, B: b, Wiring: WiringP2P,
			Machine: machine.RunConfig{Timeout: 10 * time.Second}}

		want, err := Run(a, x, opts)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}

		stepped := make(chan struct{})
		var once sync.Once
		var expired atomic.Bool
		opts.Machine.Transport = func(w machine.Wire) machine.Transport {
			return &runAheadTransport{Transport: machine.NewDirectTransport(w), rank: w.Rank(),
				stepped: stepped, once: &once, expired: &expired}
		}
		s, err := OpenSession(a, opts)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if s.lay.perRank[0].steps[0].recvFrom < 0 {
			s.Close()
			t.Fatalf("q=%d: rank 0 receives nothing in step 0; the hold would not test run-ahead", q)
		}
		got, err := s.Apply(x)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if expired.Load() {
			t.Errorf("q=%d: no peer reached gather step 1 while rank 0 waited in step 0 for 2s", q)
		}
		if !bitsEqual(got.Y, want.Y) {
			t.Errorf("q=%d: Y differs from an unhindered run", q)
		}
		if !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Errorf("q=%d: phase meters differ:\nheld %+v\nfree %+v", q, got.Phases, want.Phases)
		}
	}
}
