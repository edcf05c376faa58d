package fault_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/netwire"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestParsePlan(t *testing.T) {
	p, err := fault.ParsePlan("seed=42,drop=0.1,dup=0.05,reorder=0.2,corrupt=0.02,stall=0.01,stalldelay=2ms,crash=3@40,crash=1@7,maxfaults=100")
	if err != nil {
		t.Fatal(err)
	}
	want := fault.Plan{
		Seed: 42, Drop: 0.1, Dup: 0.05, Reorder: 0.2, Corrupt: 0.02,
		Stall: 0.01, StallDelay: 2 * time.Millisecond,
		Crash: map[int]int{3: 40, 1: 7}, MaxFaults: 100,
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if !p.Active() {
		t.Error("parsed plan not active")
	}
	// String() renders a spec ParsePlan accepts and round-trips.
	q, err := fault.ParsePlan(p.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip %+v != %+v", q, p)
	}
}

func TestParsePlanEmptyAndErrors(t *testing.T) {
	if p, err := fault.ParsePlan(""); err != nil || p.Active() {
		t.Errorf("empty spec: plan %+v err %v", p, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-0.1", "wibble=1", "crash=3", "crash=x@1", "crash=-1@5", "stalldelay=zz",
		"drop=NaN", "maxfaults=-3", "stalldelay=-5s"} {
		if _, err := fault.ParsePlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzParsePlan checks that every spec ParsePlan accepts renders, through
// Plan.String, to a spec that parses back to an equal plan.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{"", "none", "seed=42,drop=0.1,dup=0.05,reorder=0.2,corrupt=0.02,stall=0.01,stalldelay=2ms,crash=3@40,crash=1@7,maxfaults=100",
		"reset=0.3,seed=-7", "drop=NaN", "maxfaults=-3", "stalldelay=-5s", "DROP = 0x1p-2 ,crash=0@1"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := fault.ParsePlan(spec)
		if err != nil {
			return
		}
		q, err := fault.ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) rendered as %q, which fails to parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %#v, but its rendering %q parses to %#v", spec, p, p.String(), q)
		}
	})
}

// recordWire captures deliveries for injector unit tests.
type recordWire struct {
	rank, size int
	delivered  []machine.Packet
}

func (w *recordWire) Rank() int                    { return w.rank }
func (w *recordWire) Size() int                    { return w.size }
func (w *recordWire) Deliver(p machine.Packet)     { w.delivered = append(w.delivered, p) }
func (w *recordWire) Pull(int, int) machine.Packet { panic("recordWire: Pull") }
func (w *recordWire) Hold(machine.Packet)          {}
func (w *recordWire) Aborting() bool               { return false }
func (w *recordWire) Epoch() int64                 { return 0 }
func (w *recordWire) PullTimeout(time.Duration) (machine.Packet, bool) {
	return machine.Packet{}, false
}

func injectSequence(seed int64, n int) []machine.Packet {
	rec := &recordWire{rank: 0, size: 4}
	w := fault.Inject(rec, fault.NewDecider(fault.Plan{Seed: seed, Drop: 0.3, Dup: 0.2, Reorder: 0.3, Corrupt: 0.2}, rec.rank))
	for i := 0; i < n; i++ {
		w.Deliver(machine.Packet{From: 0, To: 1 + i%3, Tag: i, Seq: int32(i + 1),
			Kind: machine.PacketData, Data: []float64{float64(i), float64(i * i)}})
	}
	return rec.delivered
}

func TestInjectorDeterministic(t *testing.T) {
	a := injectSequence(7, 200)
	b := injectSequence(7, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, same delivery sequence expected")
	}
	c := injectSequence(8, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault patterns")
	}
	if len(a) == 200 {
		t.Error("no faults fired across 200 packets at these probabilities")
	}
}

func TestInjectorMaxFaultsBudget(t *testing.T) {
	rec := &recordWire{rank: 0, size: 2}
	w := fault.Inject(rec, fault.NewDecider(fault.Plan{Seed: 3, Drop: 1, MaxFaults: 5}, rec.rank))
	for i := 0; i < 50; i++ {
		w.Deliver(machine.Packet{From: 0, To: 1, Kind: machine.PacketData, Data: []float64{1}})
	}
	if got := len(rec.delivered); got != 45 {
		t.Fatalf("delivered %d of 50 with a 5-drop budget, want 45", got)
	}
}

func TestInjectorCrash(t *testing.T) {
	rec := &recordWire{rank: 4, size: 8}
	w := fault.Inject(rec, fault.NewDecider(fault.Plan{Crash: map[int]int{4: 3}}, rec.rank))
	for i := 0; i < 2; i++ {
		w.Deliver(machine.Packet{From: 4, To: 0, Kind: machine.PacketData})
	}
	defer func() {
		r := recover()
		ce, ok := r.(machine.CrashError)
		if !ok {
			t.Fatalf("panic value %T (%v), want machine.CrashError", r, r)
		}
		if ce.Rank != 4 || ce.Op != 3 {
			t.Fatalf("crash = %+v, want rank 4 op 3", ce)
		}
	}()
	w.Deliver(machine.Packet{From: 4, To: 0, Kind: machine.PacketData})
}

// TestCrashFiresOncePerDecider pins the crash-once rule through both
// realizations of a plan. Rank 1's crash at op 3 fires exactly once, on
// the rank's third send, across every transport one sim factory builds
// for the rank (a recovering session's relaunches) and across every
// machine incarnation that reuses the rank's socket node; it never fires
// again.
func TestCrashFiresOncePerDecider(t *testing.T) {
	const rank, at, incarnations = 1, 3, 3
	plan := fault.Plan{Seed: 5, Crash: map[int]int{rank: at}}
	type crash struct {
		incarnation, send int
		err               machine.CrashError
	}
	want := []crash{{0, at, machine.CrashError{Rank: rank, Op: at}}}
	// check sends 4·at packets per incarnation through the sender that
	// incarnation returns, and compares the crashes with want.
	check := func(t *testing.T, incarnation func() (send func())) {
		var got []crash
		for inc := 0; inc < incarnations; inc++ {
			send := incarnation()
			for s := 1; s <= 4*at; s++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							ce, ok := r.(machine.CrashError)
							if !ok {
								panic(r)
							}
							got = append(got, crash{inc, s, ce})
						}
					}()
					send()
				}()
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crashes %+v, want %+v", got, want)
		}
	}
	t.Run("sim", func(t *testing.T) {
		tf := fault.Unreliable(plan)
		check(t, func() func() {
			tp := tf(&recordWire{rank: rank, size: 2})
			return func() { tp.Send(0, 0, []float64{1}) }
		})
	})
	t.Run("socket", func(t *testing.T) {
		be, err := netwire.NewChaosLoopback("tcp", plan)
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		check(t, func() func() {
			w, err := be.NewWire(rank, 2)
			if err != nil {
				t.Fatal(err)
			}
			return func() { w.Deliver(machine.Packet{From: rank, To: 0, Kind: machine.PacketData, Data: []float64{1}}) }
		})
	})
}

// TestDeciderSharedAcrossTransports drives one rank's decider from four
// transports at once, as concurrent sessions opened from one options
// template do: the rank's crash still fires exactly once. Run it under
// -race.
func TestDeciderSharedAcrossTransports(t *testing.T) {
	const senders, sends = 4, 50
	tf := fault.Unreliable(fault.Plan{Seed: 9, Drop: 0.2, Dup: 0.2, Reorder: 0.2, Crash: map[int]int{1: 37}})
	var crashes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		tp := tf(&recordWire{rank: 1, size: 2})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sends; s++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(machine.CrashError); !ok {
								panic(r)
							}
							crashes.Add(1)
						}
					}()
					tp.Send(0, s, []float64{1})
				}()
			}
		}()
	}
	wg.Wait()
	if got := crashes.Load(); got != 1 {
		t.Fatalf("%d crashes across %d transports sharing rank 1's decider, want 1", got, senders)
	}
}

// reliableRun executes a ping-pong workload under the given plan and
// returns the report; every payload is verified inside the body.
func reliableRun(t *testing.T, factory machine.TransportFactory) *machine.Report {
	t.Helper()
	const rounds = 40
	rep, err := machine.RunWith(2, machine.RunConfig{Transport: factory, Timeout: time.Minute}, func(c *machine.Comm) {
		for i := 0; i < rounds; i++ {
			payload := []float64{float64(i), float64(c.Rank()), float64(i * 31)}
			c.Send(1-c.Rank(), i%3, payload)
			got := c.Recv(1-c.Rank(), i%3)
			if len(got) != 3 || got[0] != float64(i) || got[1] != float64(1-c.Rank()) || got[2] != float64(i*31) {
				t.Errorf("rank %d round %d received %v", c.Rank(), i, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReliableUnderEachFaultClass(t *testing.T) {
	clean := reliableRun(t, nil)
	for _, plan := range []fault.Plan{
		{Seed: 11, Drop: 0.4},
		{Seed: 12, Dup: 0.5},
		{Seed: 13, Reorder: 0.5},
		{Seed: 14, Corrupt: 0.4},
		{Seed: 15, Drop: 0.15, Dup: 0.15, Reorder: 0.15, Corrupt: 0.15, Stall: 0.05, StallDelay: 50 * time.Microsecond},
	} {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			rep := reliableRun(t, fault.Transport(plan, fault.ReliableOptions{}))
			if !reflect.DeepEqual(rep.SentWords, clean.SentWords) || !reflect.DeepEqual(rep.RecvWords, clean.RecvWords) ||
				!reflect.DeepEqual(rep.SentMsgs, clean.SentMsgs) || !reflect.DeepEqual(rep.RecvMsgs, clean.RecvMsgs) {
				t.Errorf("logical meters differ from fault-free run:\n got %v/%v\nwant %v/%v",
					rep.SentWords, rep.SentMsgs, clean.SentWords, clean.SentMsgs)
			}
			if plan.Drop > 0 || plan.Corrupt > 0 {
				if rep.TotalWireSentWords() <= rep.TotalSentWords() {
					t.Errorf("expected retransmission overhead, wire %dw vs logical %dw",
						rep.TotalWireSentWords(), rep.TotalSentWords())
				}
			}
		})
	}
}

func TestReliableRestoresOrder(t *testing.T) {
	// One-directional stream under heavy reordering: FIFO per (sender,
	// tag) must survive.
	const msgs = 60
	_, err := machine.RunWith(2, machine.RunConfig{
		Transport: fault.Transport(fault.Plan{Seed: 21, Reorder: 0.6}, fault.ReliableOptions{}),
		Timeout:   time.Minute,
	}, func(c *machine.Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, i%2, []float64{float64(i)})
			}
		} else {
			seen := [2]int{0, 1}
			for i := 0; i < msgs; i++ {
				tag := i % 2
				got := c.Recv(0, tag)
				if int(got[0]) != seen[tag] {
					t.Errorf("tag %d: received %v, want %d", tag, got, seen[tag])
				}
				seen[tag] += 2
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnreachablePeerIsStructured(t *testing.T) {
	// Rank 1 exits without ever receiving; rank 0's bounded retransmit
	// budget must exhaust into a structured UnreachableError.
	_, err := machine.RunWith(2, machine.RunConfig{
		Transport: fault.Transport(fault.Plan{}, fault.ReliableOptions{
			MaxAttempts: 3, AckTimeout: time.Millisecond, MaxAckTimeout: 2 * time.Millisecond,
		}),
	}, func(c *machine.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		}
	})
	var ue machine.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T (%v), want machine.UnreachableError", err, err)
	}
	if ue.Rank != 0 || ue.Peer != 1 || ue.Attempts != 3 {
		t.Errorf("unreachable = %+v, want rank 0 → peer 1 after 3 attempts", ue)
	}
}

func TestAckWaitReportsHeldMessages(t *testing.T) {
	// Rank 2 dies before acking rank 0's message, so rank 0 never leaves
	// its ack wait. The message rank 1 sends meanwhile is acknowledged and
	// released there, and the deadlock report must still list it.
	h, err := machine.StartWith(3, machine.RunConfig{
		Transport: fault.Transport(fault.Plan{Crash: map[int]int{2: 1}}, fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout:   200 * time.Millisecond,
	}, func(c *machine.Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 0, []float64{1})
		case 1:
			c.Send(0, 5, []float64{1, 2, 3})
		case 2:
			c.Recv(0, 0) // its ack is the crashing delivery
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wait()
	h.Abort() // unwind rank 0's retransmission loop
	var dead *machine.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err %T (%v), want *machine.DeadlockError", err, err)
	}
	want := []machine.PendingEntry{{From: 1, Tag: 5, Msgs: 1, Words: 3}}
	for _, w := range dead.Waits {
		if w.Rank != 0 {
			continue
		}
		if w.Kind != machine.BlockSend || w.Peer != 2 || !reflect.DeepEqual(w.Pending, want) {
			t.Errorf("rank 0 wait = %+v, want a send to rank 2 holding %+v", w, want)
		}
		return
	}
	t.Fatalf("rank 0 not in waits: %+v", dead.Waits)
}
