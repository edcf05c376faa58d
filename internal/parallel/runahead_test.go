package parallel

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// runAhead is the state the runAheadTransports of one machine share:
// how many gather messages rank 0 expects and how many its peers have
// sent, in all and when rank 0's hold ended.
type runAhead struct {
	want   int64
	sent   atomic.Int64
	all    chan struct{} // closed once sent reaches want
	sentAt atomic.Int64
}

// runAheadTransport is the direct transport with rank 0's first Recv held
// until its peers have sent every gather message addressed to rank 0.
type runAheadTransport struct {
	machine.Transport
	rank   int
	shared *runAhead
	waited bool
}

func (t *runAheadTransport) Send(to, tag int, data []float64) {
	t.Transport.Send(to, tag, data)
	if to == 0 && tag >= 100 && tag < 200 && t.shared.sent.Add(1) == t.shared.want {
		close(t.shared.all)
	}
}

func (t *runAheadTransport) Recv(from, tag int) (machine.Packet, bool) {
	if t.rank == 0 && !t.waited {
		t.waited = true
		select {
		case <-t.shared.all:
		case <-time.After(2 * time.Second):
		}
		t.shared.sentAt.Store(t.shared.sent.Load())
	}
	return t.Transport.Recv(from, tag)
}

// TestScheduledExchangeRunsAhead: every rank posts all of a phase's
// messages before its first receive, so while rank 0 is held in its first
// receive its peers still send it every gather message, which wait in
// rank 0's held list. An exchange that receives step s before it sends
// step s+1 stalls behind rank 0, and the 2 s hold expires. The Apply must
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

		ra := &runAhead{all: make(chan struct{})}
		opts.Machine.Transport = func(w machine.Wire) machine.Transport {
			return &runAheadTransport{Transport: machine.NewDirectTransport(w), rank: w.Rank(), shared: ra}
		}
		s, err := OpenSession(a, opts)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		// The ranks send nothing before the first Apply, whose dispatch
		// orders this write before every read in Send.
		for _, st := range s.lay.perRank[0].steps {
			if st.recvFrom >= 0 {
				ra.want++
			}
		}
		if ra.want < 2 {
			s.Close()
			t.Fatalf("q=%d: rank 0 receives %d gather messages; the hold would not test run-ahead", q, ra.want)
		}
		got, err := s.Apply(x)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if n := ra.sentAt.Load(); n < ra.want {
			t.Errorf("q=%d: peers had sent %d of rank 0's %d gather messages when its first receive gave up after 2s", q, n, ra.want)
		}
		if !bitsEqual(got.Y, want.Y) {
			t.Errorf("q=%d: Y differs from an unhindered run", q)
		}
		if !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Errorf("q=%d: phase meters differ:\nheld %+v\nfree %+v", q, got.Phases, want.Phases)
		}
	}
}
