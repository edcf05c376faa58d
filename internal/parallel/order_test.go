package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// orderNet is the state the orderTransports of one session share: the
// seed of the current operation, which the test sets before dispatching
// it (the dispatch orders that write before every rank's next read).
type orderNet struct{ seed atomic.Int64 }

// orderTransport is the direct transport with adversarial timing. It
// buffers its rank's arrivals per sender and releases them in a seeded
// cross-sender permutation, keeping each sender's FIFO order, in one of
// the three shapes the Transport contract allows: one message as Recv's
// result, several to the machine's held list, or several held followed
// by one as the result. It also stalls its rank for a seeded span at a
// seeded call. Every Recv releases at least one message and never blocks
// while it buffers any, so the permutation can delay a message but never
// withhold it.
type orderTransport struct {
	machine.Transport
	w        machine.Wire
	net      *orderNet
	seed     int64
	rng      *rand.Rand
	fifo     [][]machine.Packet // buffered arrivals per sender
	buffered int
	calls    int // Send and Recv calls this operation
	stallAt  int // the call that stalls, -1 for none
	stall    time.Duration
}

func newOrderFactory(net *orderNet) machine.TransportFactory {
	return func(w machine.Wire) machine.Transport {
		return &orderTransport{
			Transport: machine.NewDirectTransport(w),
			w:         w,
			net:       net,
			seed:      -1,
			fifo:      make([][]machine.Packet, w.Size()),
		}
	}
}

// step re-seeds the rank at the first call of a new operation and runs
// the operation's stall when its call comes up.
func (t *orderTransport) step() {
	if s := t.net.seed.Load(); s != t.seed {
		t.seed = s
		t.rng = rand.New(rand.NewSource(s*1009 + int64(t.w.Rank())))
		t.calls, t.stallAt = 0, -1
		if t.rng.Intn(4) == 0 {
			t.stallAt = t.rng.Intn(16)
			t.stall = time.Duration(20+t.rng.Intn(300)) * time.Microsecond
		}
	}
	if t.calls == t.stallAt {
		time.Sleep(t.stall)
	}
	t.calls++
}

func (t *orderTransport) Send(to, tag int, data []float64) {
	t.step()
	t.Transport.Send(to, tag, data)
}

// drain moves every packet already in the mailbox into the per-sender
// buffers.
func (t *orderTransport) drain() {
	for {
		pkt, ok := t.w.PullTimeout(0)
		if !ok {
			return
		}
		t.fifo[pkt.From] = append(t.fifo[pkt.From], pkt)
		t.buffered++
	}
}

func (t *orderTransport) Recv() (machine.Packet, bool) {
	t.step()
	t.drain()
	if t.buffered == 0 {
		pkt, _ := t.Transport.Recv() // blocks; unwinds on abort
		t.fifo[pkt.From] = append(t.fifo[pkt.From], pkt)
		t.buffered++
		t.drain()
	}
	// Release one message as the result, several to the held list, or
	// several held and the last as the result.
	release := 1 + t.rng.Intn(t.buffered)
	held := release
	if release == 1 || t.rng.Intn(2) == 0 {
		held = release - 1
	}
	var senders []int
	for i := 0; i < release; i++ {
		senders = senders[:0]
		for from, q := range t.fifo {
			if len(q) > 0 {
				senders = append(senders, from)
			}
		}
		from := senders[t.rng.Intn(len(senders))]
		pkt := t.fifo[from][0]
		t.fifo[from] = t.fifo[from][1:]
		t.buffered--
		if i == held {
			return pkt, true
		}
		t.w.Hold(pkt)
	}
	return machine.Packet{}, false
}

// orderOutcome is what the grid compares between the unperturbed and the
// perturbed run of one operation: output bits and per-phase meters.
type orderOutcome struct {
	y      [][]float64
	lambda float64
	phases []PhaseMeter
}

func (o orderOutcome) equal(w orderOutcome) bool {
	if len(o.y) != len(w.y) || math.Float64bits(o.lambda) != math.Float64bits(w.lambda) {
		return false
	}
	for l := range o.y {
		if !bitsEqual(o.y[l], w.y[l]) {
			return false
		}
	}
	return reflect.DeepEqual(o.phases, w.phases)
}

// TestDeliveryOrderGrid runs the session engine under adversarial
// delivery orders: at q ∈ {2, 3}, for Apply, an 8-column ApplyBatch,
// PowerMethod and a sparse Apply, over both wirings where the operation
// has them (the power method runs p2p only), 200 seeded orders
// each on one session (re-seeded per operation). Since every rank posts a
// whole phase before it receives, correctness rests on (source, tag)
// matching, per-sender FIFO and step-ordered reduction, not on the
// cross-sender order the scheduler happens to produce. Every operation's
// Y bits and per-phase meters must equal the unperturbed run's.
func TestDeliveryOrderGrid(t *testing.T) {
	orders := 200
	if testing.Short() {
		orders = 20
	}
	type op struct {
		name string
		run  func(s *Session) (orderOutcome, error)
	}
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		const b = 4
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(300 + q)))
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		X := make([][]float64, 8)
		for l := range X {
			X[l] = randVec(n, rng)
		}
		srb, err := PackSparseRankBlocks(randSparseTensor(t, n, 0.2, rng), part, b)
		if err != nil {
			t.Fatal(err)
		}
		apply := func(s *Session) (orderOutcome, error) {
			r, err := s.Apply(x)
			if err != nil {
				return orderOutcome{}, err
			}
			return orderOutcome{y: [][]float64{r.Y}, phases: r.Phases}, nil
		}
		ops := []op{
			{"apply", apply},
			{"batch8", func(s *Session) (orderOutcome, error) {
				r, err := s.ApplyBatch(X)
				if err != nil {
					return orderOutcome{}, err
				}
				return orderOutcome{y: r.Y, phases: r.Phases}, nil
			}},
			{"power", func(s *Session) (orderOutcome, error) {
				r, err := s.PowerMethod(PowerOptions{MaxIter: 3, Seed: 7})
				if err != nil {
					return orderOutcome{}, err
				}
				return orderOutcome{y: [][]float64{r.X}, lambda: r.Lambda, phases: r.Phases}, nil
			}},
			{"sparse", apply},
		}
		for _, o := range ops {
			for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
				if o.name == "power" && wiring == WiringAllToAll {
					continue // the power method runs the p2p wiring only
				}
				t.Run(fmt.Sprintf("q=%d/%s/%v", q, o.name, wiring), func(t *testing.T) {
					opts := Options{Part: part, B: b, Wiring: wiring, MaxCols: 8,
						Machine: machine.RunConfig{Timeout: 10 * time.Second}}
					ten := a
					if o.name == "sparse" {
						opts.Sparse, ten = srb, nil
					}
					plain, err := OpenSession(ten, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := o.run(plain)
					if cerr := plain.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Fatal(err)
					}
					net := &orderNet{}
					opts.Machine.Transport = newOrderFactory(net)
					s, err := OpenSession(ten, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					for seed := 1; seed <= orders; seed++ {
						net.seed.Store(int64(seed))
						got, err := o.run(s)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if !got.equal(want) {
							t.Fatalf("seed %d: Y bits or per-phase meters differ from the unperturbed run", seed)
						}
					}
				})
			}
		}
	}
}

// TestRelaunchReleasesHeldMessages crashes a rank of a recovering session
// mid-gather, while its peers, which post a whole phase before they
// receive, hold each other's run-ahead messages. The supervisor retires
// that machine with messages still held, relaunches and replays; more
// Applies follow, then Close. Every call must end with its result, bit
// for bit, and retiring the machines must release every goroutine they
// started.
func TestRelaunchReleasesHeldMessages(t *testing.T) {
	part := sphericalPart(t, 2)
	const b, crashRank = 6, 3
	n := part.M * b
	rng := rand.New(rand.NewSource(91))
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	opts := Options{Part: part, B: b, Wiring: WiringP2P}
	want, err := Run(a, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Under the direct transport each send is one wire operation, so the
	// crash rank's sends in one Apply are its steps' gather and
	// reduce-scatter sends; the crash lands halfway through the second
	// Apply's gather.
	sched, err := schedule.Build(part)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := buildLayout(part, sched, WiringP2P, b)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, st := range lay.perRank[crashRank].steps {
		if st.sendTo >= 0 {
			sends++
		}
	}
	if sends < 2 {
		t.Fatalf("rank %d sends %d gather messages; no mid-gather point", crashRank, sends)
	}
	crashAt := 2*sends + sends/2 + 1

	before := runtime.NumGoroutine()
	opts.Machine = machine.RunConfig{
		Transport: fault.Unreliable(fault.Plan{Seed: 1, Crash: map[int]int{crashRank: crashAt}}),
		Timeout:   10 * time.Second,
	}
	opts.Recovery = &RecoveryOptions{}
	s, err := OpenSession(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := s.Apply(x)
		if err != nil {
			s.Close()
			t.Fatalf("Apply %d: %v", i, err)
		}
		if !bitsEqual(got.Y, want.Y) {
			t.Fatalf("Apply %d: Y differs from a crash-free run", i)
		}
	}
	if st := s.RecoveryStats(); st.Relaunches != 1 || st.RankDowns != 1 {
		t.Errorf("recovery stats %+v, want one rank death and one relaunch", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
	}
}
