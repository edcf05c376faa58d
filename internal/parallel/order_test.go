package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// orderNet is the state the orderTransports of one session share: the
// seed of the current operation, which the test sets before dispatching
// it (the dispatch orders that write before every rank's next read), and
// the mask of ranks allowed to stall (bit r for rank r).
type orderNet struct {
	seed  atomic.Int64
	stall uint64
}

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
			fifo:      make([][]machine.Packet, w.Size()),
		}
	}
}

// step re-seeds the rank at the first call of a new operation and runs
// the operation's stall when its call comes up. A rank outside the stall
// mask draws its stall all the same, so the mask leaves its orders as
// they are.
func (t *orderTransport) step() {
	if s := t.net.seed.Load(); t.rng == nil || s != t.seed {
		t.seed = s
		t.rng = rand.New(rand.NewSource(s*1009 + int64(t.w.Rank())))
		t.calls, t.stallAt = 0, -1
		if t.rng.Intn(4) == 0 {
			t.stallAt = t.rng.Intn(16)
			t.stall = time.Duration(20+t.rng.Intn(300)) * time.Microsecond
		}
		if t.net.stall>>uint(t.w.Rank())&1 == 0 {
			t.stallAt = -1
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

// Recv asks the direct transport for any packet, since it buffers every
// arrival.
func (t *orderTransport) Recv(int, int) (machine.Packet, bool) {
	t.step()
	t.drain()
	if t.buffered == 0 {
		pkt, _ := t.Transport.Recv(-1, -1) // blocks; unwinds on abort
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

// orderOp is one operation the delivery-order checks run: on a dense,
// sparse or CP session, and for the power method over the p2p wiring only.
type orderOp struct {
	name string
	kind string // "dense", "sparse" or "cp"
	run  func(s *Session) (orderOutcome, error)
}

func applyOutcome(x []float64) func(s *Session) (orderOutcome, error) {
	return func(s *Session) (orderOutcome, error) {
		r, err := s.Apply(x)
		if err != nil {
			return orderOutcome{}, err
		}
		return orderOutcome{y: [][]float64{r.Y}, phases: r.Phases}, nil
	}
}

func batchOutcome(X [][]float64) func(s *Session) (orderOutcome, error) {
	return func(s *Session) (orderOutcome, error) {
		r, err := s.ApplyBatch(X)
		if err != nil {
			return orderOutcome{}, err
		}
		return orderOutcome{y: r.Y, phases: r.Phases}, nil
	}
}

func powerOutcome(s *Session) (orderOutcome, error) {
	r, err := s.PowerMethod(PowerOptions{MaxIter: 3, Seed: 7})
	if err != nil {
		return orderOutcome{}, err
	}
	return orderOutcome{y: [][]float64{r.X}, lambda: r.Lambda, phases: r.Phases}, nil
}

// orderFixture is the operators one q's delivery-order checks run on.
type orderFixture struct {
	part   *partition.Tetrahedral
	a      *tensor.Symmetric
	sparse *SparseRankBlocks
	cp     *sttsv.CPOperator
}

const orderB = 4

// newOrderFixture draws q's operators and inputs: a dense tensor, a
// sparse one, a rank-4 CP operator, one vector, eight batch columns and a
// rank-4 factor matrix.
func newOrderFixture(t testing.TB, q int) (orderFixture, []orderOp) {
	part := sphericalPart(t, q)
	n := part.M * orderB
	rng := rand.New(rand.NewSource(int64(300 + q)))
	f := orderFixture{part: part, a: tensor.Random(n, rng)}
	x := randVec(n, rng)
	X := make([][]float64, 8)
	for l := range X {
		X[l] = randVec(n, rng)
	}
	srb, err := PackSparseRankBlocks(randSparseTensor(t, n, 0.2, rng), part, orderB)
	if err != nil {
		t.Fatal(err)
	}
	f.sparse = srb
	f.cp = randCPOperator(t, n, 4, rng)
	factor := la.NewMatrix(n, 4)
	for i := range factor.Data {
		factor.Data[i] = rng.NormFloat64()
	}
	return f, []orderOp{
		{"apply", "dense", applyOutcome(x)},
		{"batch8", "dense", batchOutcome(X)},
		{"power", "dense", powerOutcome},
		{"sparse", "sparse", applyOutcome(x)},
		{"mttkrp", "dense", func(s *Session) (orderOutcome, error) {
			y, r, err := s.MTTKRP(factor, 0)
			if err != nil {
				return orderOutcome{}, err
			}
			return orderOutcome{y: [][]float64{y.Data}, phases: r.Phases}, nil
		}},
		{"cp-apply", "cp", applyOutcome(x)},
		{"cp-batch8", "cp", batchOutcome(X)},
		{"cp-power", "cp", powerOutcome},
	}
}

// open opens the session kind runs on, P = part.P ranks for CP.
func (f orderFixture) open(kind string, wiring Wiring, cfg machine.RunConfig) (*Session, error) {
	opts := Options{Part: f.part, B: orderB, Wiring: wiring, MaxCols: 8, Machine: cfg}
	switch kind {
	case "sparse":
		opts.Sparse = f.sparse
		return OpenSession(nil, opts)
	case "cp":
		return OpenCPSession(f.cp, CPOptions{P: f.part.P, MaxCols: 8, Machine: cfg})
	}
	return OpenSession(f.a, opts)
}

// unperturbed runs o once on a session over the direct transport.
func (f orderFixture) unperturbed(o orderOp, wiring Wiring) (orderOutcome, error) {
	s, err := f.open(o.kind, wiring, machine.RunConfig{Timeout: 10 * time.Second})
	if err != nil {
		return orderOutcome{}, err
	}
	want, err := o.run(s)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return want, err
}

// TestDeliveryOrderGrid runs the session engine under adversarial
// delivery orders: at q ∈ {2, 3, 4}, for Apply, an 8-column ApplyBatch,
// PowerMethod, a sparse Apply, a rank-4 MTTKRP, and a CP session's Apply,
// 8-column ApplyBatch and PowerMethod, over both wirings where the
// operation has them (the power method and CP sessions run p2p only),
// seeded orders on one session (re-seeded per operation): 200 each at
// q ∈ {2, 3}, 25 at q = 4. Since every rank posts a whole phase before it
// receives, correctness rests on (source, tag) matching, per-sender FIFO
// and step-ordered reduction, not on the cross-sender order the scheduler
// happens to produce. Every operation's Y bits and per-phase meters must
// equal the unperturbed run's.
//
// The order transport asks its wire for any packet, so two slices at
// q = 3 run each operation five times over faulted wires instead: the
// reliable transport under a benign plan, which waits for any packet and
// releases through Wire.Hold, and the plain direct transport under a
// stall-only plan, whose receives park until their own (source, tag)
// arrives while senders stall.
func TestDeliveryOrderGrid(t *testing.T) {
	for _, q := range []int{2, 3, 4} {
		orders := 200
		if q == 4 {
			orders = 25
		}
		if testing.Short() {
			orders = min(orders, 20)
		}
		f, ops := newOrderFixture(t, q)
		f.grid(t, fmt.Sprintf("q=%d", q), ops, orders, func() (machine.TransportFactory, func(int)) {
			net := &orderNet{stall: ^uint64(0)}
			return newOrderFactory(net), func(seed int) { net.seed.Store(int64(seed)) }
		})
	}
	f, ops := newOrderFixture(t, 3)
	for _, wire := range []struct {
		name string
		tf   machine.TransportFactory
	}{
		{"reliable", fault.Transport(fault.Plan{Seed: 5, Drop: 0.03, Dup: 0.03, Reorder: 0.05, Corrupt: 0.02}, fault.ReliableOptions{})},
		{"stalls", fault.Unreliable(fault.Plan{Seed: 6, Stall: 0.02, StallDelay: 200 * time.Microsecond})},
	} {
		f.grid(t, "q=3/"+wire.name, ops, 5, func() (machine.TransportFactory, func(int)) { return wire.tf, func(int) {} })
	}
}

// grid runs each operation n times on one session per wiring it has (the
// power method and CP sessions run p2p only), as subtest
// prefix/operation/wiring. wire gives each session's transport and a hook
// every run calls first with its number, from 1. Every run must reproduce
// the unperturbed run's Y bits and per-phase meters.
func (f orderFixture) grid(t *testing.T, prefix string, ops []orderOp, n int, wire func() (machine.TransportFactory, func(int))) {
	for _, o := range ops {
		for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
			if wiring == WiringAllToAll && (o.name == "power" || o.kind == "cp") {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/%v", prefix, o.name, wiring), func(t *testing.T) {
				want, err := f.unperturbed(o, wiring)
				if err != nil {
					t.Fatal(err)
				}
				tf, start := wire()
				s, err := f.open(o.kind, wiring, machine.RunConfig{Timeout: 10 * time.Second, Transport: tf})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i := 1; i <= n; i++ {
					start(i)
					got, err := o.run(s)
					if err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					if !got.equal(want) {
						t.Fatalf("run %d: Y bits or per-phase meters differ from the unperturbed run", i)
					}
				}
			})
		}
	}
}

// FuzzDeliveryOrder explores delivery orders past the grid's fixed seeds:
// the seed (plus i for the i-th operation) picks every rank's
// cross-sender orders, stall call and stall duration as in
// TestDeliveryOrderGrid, and rank r may stall only if bit r of stallMask
// is set. On a q = 2 p2p session, Apply and a 3-iteration
// PowerMethod must reproduce the unperturbed run's bits and per-phase
// meters.
func FuzzDeliveryOrder(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 199} {
		f.Add(seed, ^uint64(0))
	}
	f.Add(int64(3), uint64(0b1000000001))
	fix, ops := newOrderFixture(f, 2)
	ops = []orderOp{ops[0], ops[2]} // apply, power
	want := make([]orderOutcome, len(ops))
	for i, o := range ops {
		var err error
		if want[i], err = fix.unperturbed(o, WiringP2P); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, stallMask uint64) {
		net := &orderNet{stall: stallMask}
		s, err := fix.open("dense", WiringP2P, machine.RunConfig{Timeout: 10 * time.Second, Transport: newOrderFactory(net)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i, o := range ops {
			net.seed.Store(seed + int64(i))
			got, err := o.run(s)
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if !got.equal(want[i]) {
				t.Fatalf("%s: Y bits or per-phase meters differ from the unperturbed run", o.name)
			}
		}
	})
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
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count falls back to before,
// its value before Open, within 5 s of Close.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
	}
}

// TestDeadlockVerdictReleasesRanks crashes rank 3 of a fail-fast session
// at its third send, mid-gather, under a 200 ms watchdog. Apply and Close
// must return the watchdog's DeadlockError naming the crashed rank, and
// once Close has returned, the survivors, parked on their mailboxes with
// each other's run-ahead messages held, must have unwound and exited.
func TestDeadlockVerdictReleasesRanks(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 4
	n := part.M * b
	rng := rand.New(rand.NewSource(17))
	a := tensor.Random(n, rng)
	before := runtime.NumGoroutine()
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P, Machine: machine.RunConfig{
		Transport: fault.Unreliable(fault.Plan{Seed: 1, Crash: map[int]int{3: 3}}),
		Timeout:   200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var dead *machine.DeadlockError
	if _, err := s.Apply(randVec(n, rng)); !errors.As(err, &dead) || !slices.Contains(dead.Crashed, 3) {
		s.Close()
		t.Fatalf("Apply: %v, want a DeadlockError naming crashed rank 3", err)
	}
	if err := s.Close(); !errors.As(err, &dead) {
		t.Fatalf("Close: %v, want the DeadlockError", err)
	}
	waitGoroutines(t, before)
}
