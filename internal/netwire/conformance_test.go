package netwire_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// loopbacks under test, alongside the nil (SimBackend) reference.
var networks = []string{"tcp", "unix"}

func newLoopback(t *testing.T, network string) *netwire.Loopback {
	t.Helper()
	be, err := netwire.NewLoopback(network)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// TestLoopbackMachineConformance runs a deterministic exchange body over
// the sim backend and both socket loopbacks: results and logical meters
// must agree exactly; socket wire meters must price frames, not payloads.
func TestLoopbackMachineConformance(t *testing.T) {
	const p = 4
	body := func(c *machine.Comm) {
		me := c.Rank()
		for round := 0; round < 3; round++ {
			peer := me ^ (round + 1) // perfect matchings for p = 4
			data := make([]float64, 5+me)
			for i := range data {
				data[i] = float64(me*100 + round*10 + i)
			}
			if me < peer {
				c.Send(peer, round, data)
				got := c.Recv(peer, round)
				if len(got) != 5+peer {
					t.Errorf("rank %d round %d: got %d words", me, round, len(got))
				}
			} else {
				got := c.Recv(peer, round)
				if len(got) != 5+peer {
					t.Errorf("rank %d round %d: got %d words", me, round, len(got))
				}
				c.Send(peer, round, data)
			}
		}
	}
	ref, err := machine.RunWith(p, machine.RunConfig{Timeout: 30 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
	for _, network := range networks {
		be := newLoopback(t, network)
		rep, err := machine.RunWith(p, machine.RunConfig{Timeout: 30 * time.Second, Backend: be}, body)
		if err != nil {
			t.Fatalf("%s: %v", network, err)
		}
		for r := 0; r < p; r++ {
			if rep.SentWords[r] != ref.SentWords[r] || rep.RecvWords[r] != ref.RecvWords[r] ||
				rep.SentMsgs[r] != ref.SentMsgs[r] || rep.RecvMsgs[r] != ref.RecvMsgs[r] {
				t.Errorf("%s rank %d: logical meters (%d,%d,%d,%d) != sim (%d,%d,%d,%d)", network, r,
					rep.SentWords[r], rep.RecvWords[r], rep.SentMsgs[r], rep.RecvMsgs[r],
					ref.SentWords[r], ref.RecvWords[r], ref.SentMsgs[r], ref.RecvMsgs[r])
			}
			// Wire meters price the frame: each message adds exactly the
			// framing overhead over its payload words.
			wantWire := rep.SentWords[r] + netwire.FrameWords(0)*rep.WireSentMsgs[r]
			if rep.WireSentWords[r] != wantWire {
				t.Errorf("%s rank %d: wire sent %d words, want %d (framed)", network, r, rep.WireSentWords[r], wantWire)
			}
		}
	}
}

func sphericalPart(t testing.TB, q int) *partition.Tetrahedral {
	t.Helper()
	part, err := partition.NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runApply applies x once through a parallel session over the given
// backend (nil = sim) and returns the result.
func runApply(t *testing.T, a *tensor.Symmetric, x []float64, part *partition.Tetrahedral, b int, be machine.Backend) *parallel.Result {
	t.Helper()
	opts := parallel.Options{
		Part:    part,
		B:       b,
		Wiring:  parallel.WiringP2P,
		Machine: machine.RunConfig{Timeout: 60 * time.Second, Backend: be},
	}
	res, err := parallel.Run(a, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoopbackParallelConformance is the acceptance gate: Algorithm 5
// applications at q∈{2,3} over the TCP (and unix) loopback produce
// bit-identical Y and identical logical per-phase meters to the sim
// backend.
func TestLoopbackParallelConformance(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1)
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(90 + q)))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := runApply(t, a, x, part, b, nil)
		for _, network := range networks {
			res := runApply(t, a, x, part, b, newLoopback(t, network))
			if !bitsEqual(res.Y, ref.Y) {
				t.Errorf("q=%d %s: Y differs from sim", q, network)
			}
			if len(res.Phases) != len(ref.Phases) {
				t.Fatalf("q=%d %s: %d phases, sim %d", q, network, len(res.Phases), len(ref.Phases))
			}
			for i := range ref.Phases {
				rp, sp := res.Phases[i], ref.Phases[i]
				if rp.Label != sp.Label {
					t.Fatalf("q=%d %s: phase %d label %q != %q", q, network, i, rp.Label, sp.Label)
				}
				for r := 0; r < part.P; r++ {
					if rp.SentWords[r] != sp.SentWords[r] || rp.RecvWords[r] != sp.RecvWords[r] ||
						rp.SentMsgs[r] != sp.SentMsgs[r] || rp.RecvMsgs[r] != sp.RecvMsgs[r] {
						t.Errorf("q=%d %s phase %q rank %d: logical meters differ", q, network, rp.Label, r)
					}
				}
			}
		}
	}
}

// TestLoopbackPowerMethodConformance: a full power method (the workload
// the kill-9 suite recovers) is bit-identical over TCP at q=2.
func TestLoopbackPowerMethodConformance(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	rng := rand.New(rand.NewSource(97))
	a := tensor.Random(n, rng)
	open := func(be machine.Backend) (*parallel.Session, error) {
		return parallel.OpenSession(a, parallel.Options{
			Part:    part,
			B:       b,
			Wiring:  parallel.WiringP2P,
			Machine: machine.RunConfig{Timeout: 60 * time.Second, Backend: be},
		})
	}
	sref, err := open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sref.Close()
	ref, err := sref.PowerMethod(parallel.PowerOptions{MaxIter: 12, Tol: 1e-10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snet, err := open(newLoopback(t, "tcp"))
	if err != nil {
		t.Fatal(err)
	}
	defer snet.Close()
	got, err := snet.PowerMethod(parallel.PowerOptions{MaxIter: 12, Tol: 1e-10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Lambda) != math.Float64bits(ref.Lambda) || got.Iterations != ref.Iterations {
		t.Errorf("tcp power method: λ=%v iters=%d, sim λ=%v iters=%d", got.Lambda, got.Iterations, ref.Lambda, ref.Iterations)
	}
	if !bitsEqual(got.X, ref.X) {
		t.Error("tcp power method: eigenvector differs from sim")
	}
}
