package netwire_test

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// chaosPlans is the seeded grid the socket fault layer is proven against:
// each class alone, then everything at once. Probabilities stay below the
// point where a bounded-retry transport could plausibly exhaust its
// budget; stalls use a tiny delay so the grid stays fast.
var chaosPlans = []fault.Plan{
	{Seed: 101, Drop: 0.2},
	{Seed: 202, Dup: 0.25},
	{Seed: 303, Reorder: 0.35},
	{Seed: 404, Reset: 0.12},
	{Seed: 505, Drop: 0.08, Dup: 0.08, Reorder: 0.08, Corrupt: 0.1, Reset: 0.08, Stall: 0.05, StallDelay: 200 * time.Microsecond},
}

// chaosTransport is the reliable transport every chaos-wired run needs:
// the plan argument is empty because the faults live below the codec, in
// the socket layer itself. The retry budget is generous — corrupt and
// reset faults tear whole connections, so a burst of losses must not
// exhaust it.
func chaosTransport() machine.TransportFactory {
	return fault.Transport(fault.Plan{}, fault.ReliableOptions{MaxAttempts: 1 << 12})
}

func newChaosLoopback(t *testing.T, network string, plan fault.Plan) *netwire.Loopback {
	t.Helper()
	be, err := netwire.NewChaosLoopback(network, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// TestSocketChaosConformance is the chaos acceptance gate: Algorithm 5
// applications at q∈{2,3} over TCP and unix loopbacks whose frames are
// dropped, duplicated, reordered, corrupted, torn and stalled by seeded
// plans still produce bit-identical Y and identical logical per-phase
// meters to the fault-free SimBackend run. The criterion is equality with
// the clean sim run — the reliable transport must erase every fault the
// socket layer injects.
func TestSocketChaosConformance(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := 2
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(700 + q)))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := runApply(t, a, x, part, b, nil)
		for _, plan := range chaosPlans {
			for _, network := range networks {
				plan, network := plan, network
				t.Run(plan.String()+"/"+network+"/q="+string(rune('0'+q)), func(t *testing.T) {
					be := newChaosLoopback(t, network, plan)
					res, err := parallel.Run(a, x, parallel.Options{
						Part:   part,
						B:      b,
						Wiring: parallel.WiringP2P,
						Machine: machine.RunConfig{
							Timeout:   60 * time.Second,
							Backend:   be,
							Transport: chaosTransport(),
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(res.Y, ref.Y) {
						t.Error("Y differs from the fault-free sim run")
					}
					if len(res.Phases) != len(ref.Phases) {
						t.Fatalf("%d phases, sim %d", len(res.Phases), len(ref.Phases))
					}
					for i := range ref.Phases {
						rp, sp := res.Phases[i], ref.Phases[i]
						for r := 0; r < part.P; r++ {
							if rp.SentWords[r] != sp.SentWords[r] || rp.RecvWords[r] != sp.RecvWords[r] ||
								rp.SentMsgs[r] != sp.SentMsgs[r] || rp.RecvMsgs[r] != sp.RecvMsgs[r] {
								t.Errorf("phase %q rank %d: logical meters differ from sim", rp.Label, r)
							}
						}
					}
				})
			}
		}
	}
}

// TestSocketChaosCrashRecoveryComposition composes the socket fault layer
// with in-process crash recovery: a plan that both perturbs frames and
// crashes a rank mid-run, over a TCP loopback, with the recovery
// supervisor armed. The relaunched machine reuses every node (and its
// chaos clock), the epoch fence drops the retired machine's stale frames,
// the ranks roll back, and the committed result still matches the
// fault-free sim bit for bit.
func TestSocketChaosCrashRecoveryComposition(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 2
	n := part.M * b
	rng := rand.New(rand.NewSource(711))
	a := tensor.Random(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := runApply(t, a, x, part, b, nil)

	plan := fault.Plan{Seed: 606, Drop: 0.1, Reorder: 0.1, Crash: map[int]int{1: 5}}
	be := newChaosLoopback(t, "tcp", plan)
	res, err := parallel.Run(a, x, parallel.Options{
		Part:   part,
		B:      b,
		Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Timeout:   60 * time.Second,
			Backend:   be,
			Transport: chaosTransport(),
		},
		Recovery: &parallel.RecoveryOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(res.Y, ref.Y) {
		t.Error("Y differs from the fault-free sim run after crash recovery")
	}
}

// TestSocketChaosReportsEachLostFrameOnce: a frame that cannot be written
// because its node is closed is reported lost exactly once, with a chaos
// plan attached as without one. The chaos layer reports its own losses,
// so Wire.Deliver must not report the same frame again.
func TestSocketChaosReportsEachLostFrameOnce(t *testing.T) {
	for _, plan := range []fault.Plan{{}, {Seed: 1, Stall: 1e-12}} {
		be := newChaosLoopback(t, "tcp", plan)
		w, err := be.NewWire(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var reasons []string
		w.OnDrop(func(_ machine.Packet, reason string) { reasons = append(reasons, reason) })
		be.Close()
		w.Deliver(machine.Packet{From: 1, To: 0, Kind: machine.PacketData, Data: []float64{1}})
		if len(reasons) != 1 {
			t.Errorf("plan %v: one lost frame reported %d times: %q", plan, len(reasons), reasons)
		}
	}
}

// TestParkedRankServicesTransport is the regression test for the
// park/ack deadlock: rank 0 receives a message, sends the ack, the ack is
// lost, and rank 0 parks in AwaitHost, as a rank process does between
// control-plane ops. Rank 1 is still blocked in Send, retransmitting —
// only rank 0's transport, servicing the wire inside Transport.Wait, can
// re-acknowledge the duplicate while rank 0 is parked. A parked rank that
// stopped servicing its transport would leave rank 1 retransmitting into
// silence until its attempt budget died, and the run would fail.
func TestParkedRankServicesTransport(t *testing.T) {
	const p = 2
	co, err := netwire.NewCoordinator("tcp", "127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	clients := make([]*netwire.Client, p)
	for r := 0; r < p; r++ {
		var copt netwire.ClientOptions
		if r == 0 {
			// Drop exactly the first outbound frame from rank 0 — the ack
			// for rank 1's message. Every later frame passes.
			copt.FaultPlan = fault.Plan{Seed: 1, Drop: 1.0, MaxFaults: 1}
		}
		cl, err := netwire.NewClient("tcp", co.Addr(), r, p, copt)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[r] = cl
	}
	for i := 0; i < p; i++ {
		if ev := <-co.Events(); ev.Type != "hello" {
			t.Fatalf("event %d: %q, want hello", i, ev.Type)
		}
	}
	addrs, ok := co.Portmap()
	if !ok {
		t.Fatal("portmap incomplete after all hellos")
	}
	for _, cl := range clients {
		cl.Adopt(addrs)
	}

	// Rank 0 stays parked until rank 1's Send has returned, the order a
	// coordinator gives by releasing the ranks only once all have reported.
	sent := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, err := machine.RunWith(p, machine.RunConfig{
				Backend:    clients[r],
				LocalRanks: []int{r},
				Timeout:    10 * time.Second,
				Transport:  fault.Transport(fault.Plan{}, fault.ReliableOptions{MaxAttempts: 64, AckTimeout: 2 * time.Millisecond}),
			}, func(c *machine.Comm) {
				if c.Rank() == 1 {
					// Blocks until acked; the first ack is eaten by rank 0's
					// chaos layer, so completion needs rank 0 to service the
					// retransmission from inside its park.
					c.Send(0, 7, []float64{42})
					close(sent)
					return
				}
				got := c.Recv(1, 7)
				if len(got) != 1 || got[0] != 42 {
					errs <- errf("rank 0: got %v", got)
				}
				c.AwaitHost(func() { <-sent })
			})
			if err != nil {
				errs <- errf("rank %d: %v", r, err)
			}
		}(r)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("rank 1's send never completed: the parked rank's transport was not serviced")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMultiHostPortmap binds every rank to a distinct loopback address
// from a hosts list — the single-machine shape of a multi-host run — and
// checks that the coordinator's portmap advertises each rank's own
// address rather than assuming one shared loopback, and that the exchange
// over those addresses matches the sim meters.
func TestMultiHostPortmap(t *testing.T) {
	hosts := []string{"127.0.0.1", "127.0.0.2", "127.0.0.3"}
	for _, h := range hosts[1:] {
		ln, err := net.Listen("tcp", net.JoinHostPort(h, "0"))
		if err != nil {
			t.Skipf("cannot bind %s: %v (single-address loopback)", h, err)
		}
		ln.Close()
	}
	p := len(hosts)
	co, err := netwire.NewCoordinator("tcp", "127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	clients := make([]*netwire.Client, p)
	for r := 0; r < p; r++ {
		cl, err := netwire.NewClient("tcp", co.Addr(), r, p, netwire.ClientOptions{Bind: hosts[r]})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[r] = cl
	}
	for i := 0; i < p; i++ {
		if ev := <-co.Events(); ev.Type != "hello" {
			t.Fatalf("event %d: %q, want hello", i, ev.Type)
		}
	}
	addrs, ok := co.Portmap()
	if !ok {
		t.Fatal("portmap incomplete after all hellos")
	}
	for r, addr := range addrs {
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("rank %d advertises %q: %v", r, addr, err)
		}
		if host != hosts[r] {
			t.Errorf("rank %d advertises host %q, want %q", r, host, hosts[r])
		}
	}
	for _, cl := range clients {
		cl.Adopt(addrs)
	}

	body := func(c *machine.Comm) {
		me := c.Rank()
		next, prev := (me+1)%p, (me+p-1)%p
		for round := 0; round < 3; round++ {
			c.Send(next, round, []float64{float64(me), float64(round)})
			got := c.Recv(prev, round)
			if len(got) != 2 || got[0] != float64(prev) {
				t.Errorf("rank %d round %d: got %v", me, round, got)
			}
		}
	}
	ref, err := machine.RunWith(p, machine.RunConfig{Timeout: 30 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}

	reports := make([]*machine.Report, p)
	var wg sync.WaitGroup
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep, err := machine.RunWith(p, machine.RunConfig{
				Backend:    clients[r],
				LocalRanks: []int{r},
				Timeout:    30 * time.Second,
			}, body)
			if err != nil {
				errs <- errf("rank %d: %v", r, err)
				return
			}
			reports[r] = rep
		}(r)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		t.Fatal("multi-host exchange did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for r := 0; r < p; r++ {
		rep := reports[r]
		if rep.SentWords[r] != ref.SentWords[r] || rep.RecvWords[r] != ref.RecvWords[r] ||
			rep.SentMsgs[r] != ref.SentMsgs[r] || rep.RecvMsgs[r] != ref.RecvMsgs[r] {
			t.Errorf("rank %d: logical meters (%d,%d,%d,%d) != sim (%d,%d,%d,%d)", r,
				rep.SentWords[r], rep.RecvWords[r], rep.SentMsgs[r], rep.RecvMsgs[r],
				ref.SentWords[r], ref.RecvWords[r], ref.SentMsgs[r], ref.RecvMsgs[r])
		}
	}
}
