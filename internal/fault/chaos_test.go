package fault_test

// The chaos-conformance suite: for a grid of seeded fault schedules ×
// parallel algorithms, the reliable transport must reproduce the
// fault-free run exactly — bit-identical results AND identical logical
// per-rank communication meters (the quantities compared against the
// paper's lower bounds) — with all recovery traffic confined to the wire
// meters. A rank-crash schedule must surface as a structured
// DeadlockError/CrashError naming the affected ranks, never a hang or a
// bare timeout.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// chaosAlgo runs one parallel algorithm under a machine configuration and
// returns its flattened numeric result plus the metered report.
type chaosAlgo struct {
	name string
	run  func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report)
}

func chaosSetup(t *testing.T) (*partition.Tetrahedral, *tensor.Symmetric, []float64, int) {
	t.Helper()
	part, err := partition.NewSpherical(2) // m=5, P=10
	if err != nil {
		t.Fatal(err)
	}
	const b = 3
	n := part.M * b
	rng := newRng(77)
	a := tensor.Random(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return part, a, x, b
}

func chaosAlgos(t *testing.T) []chaosAlgo {
	part, a, x, b := chaosSetup(t)
	n := len(x)
	xmat := la.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		xmat.Set(i, 0, x[i])
		xmat.Set(i, 1, x[(i+3)%n])
	}
	return []chaosAlgo{
		{"alg5-p2p", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			res, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			return res.Y, res.Report
		}},
		{"alg5-alltoall", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			res, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringAllToAll, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			return res.Y, res.Report
		}},
		{"mttkrp-r2", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			y, res, err := parallel.RunMTTKRP(a, xmat, 2, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P, Machine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]float64, 0, n*2)
			for i := 0; i < n; i++ {
				flat = append(flat, y.At(i, 0), y.At(i, 1))
			}
			return flat, res.Report
		}},
		{"row-baseline", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			res, err := parallel.RunRowBaseline(a, x, 6, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Y, res.Report
		}},
		{"sequence-baseline", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			res, err := parallel.RunSequenceBaseline(a, x, 5, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Y, res.Report
		}},
		{"power-method", func(t *testing.T, cfg machine.RunConfig) ([]float64, *machine.Report) {
			res, err := parallel.RunPowerMethod(a,
				parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P, Machine: cfg},
				parallel.PowerOptions{MaxIter: 5, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return append(append([]float64(nil), res.X...), res.Lambda), res.Report
		}},
	}
}

// The ≥4 distinct benign schedules of the acceptance grid, plus a mixed
// one that layers corruption over everything else.
var chaosPlans = []fault.Plan{
	{Seed: 101, Drop: 0.2},
	{Seed: 202, Dup: 0.25},
	{Seed: 303, Reorder: 0.35},
	{Seed: 404, Stall: 0.15, StallDelay: 100 * time.Microsecond},
	{Seed: 505, Drop: 0.08, Dup: 0.08, Reorder: 0.08, Corrupt: 0.1},
}

func TestChaosConformance(t *testing.T) {
	for _, algo := range chaosAlgos(t) {
		algo := algo
		t.Run(algo.name, func(t *testing.T) {
			t.Parallel()
			wantY, wantRep := algo.run(t, machine.RunConfig{})
			for _, plan := range chaosPlans {
				plan := plan
				t.Run(plan.String(), func(t *testing.T) {
					gotY, gotRep := algo.run(t, machine.RunConfig{
						Transport: fault.Transport(plan, fault.ReliableOptions{}),
						Timeout:   time.Minute, // watchdog armed: a protocol bug fails fast with diagnostics
					})
					if len(gotY) != len(wantY) {
						t.Fatalf("result length %d, want %d", len(gotY), len(wantY))
					}
					for i := range wantY {
						if gotY[i] != wantY[i] {
							t.Fatalf("result[%d] = %g differs from fault-free %g", i, gotY[i], wantY[i])
						}
					}
					assertSameLogicalMeters(t, wantRep, gotRep)
					if got, want := gotRep.TotalWireSentWords(), gotRep.TotalSentWords(); got < want {
						t.Errorf("wire words %d below logical words %d", got, want)
					}
				})
			}
		})
	}
}

func assertSameLogicalMeters(t *testing.T, want, got *machine.Report) {
	t.Helper()
	check := func(name string, w, g []int64) {
		if len(w) != len(g) {
			t.Fatalf("%s: %d ranks vs %d", name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Errorf("%s[rank %d] = %d under faults, %d fault-free", name, i, g[i], w[i])
			}
		}
	}
	check("SentWords", want.SentWords, got.SentWords)
	check("RecvWords", want.RecvWords, got.RecvWords)
	check("SentMsgs", want.SentMsgs, got.SentMsgs)
	check("RecvMsgs", want.RecvMsgs, got.RecvMsgs)
}

// TestChaosStallDirect: a stall-only schedule preserves delivery, so even
// the unrepaired direct transport must agree with the fault-free run.
func TestChaosStallDirect(t *testing.T) {
	part, a, x, b := chaosSetup(t)
	want := sttsv.Packed(a, x, nil)
	res, err := parallel.Run(a, x, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Unreliable(fault.Plan{Seed: 9, Stall: 0.2, StallDelay: 50 * time.Microsecond}),
			Timeout:   time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if diff := res.Y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Y[%d] differs by %g under stall-only faults", i, diff)
		}
	}
	if res.Report.OverheadWords() != 0 {
		t.Errorf("stall-only direct run has %d overhead words, want 0", res.Report.OverheadWords())
	}
}

// TestChaosCrash: a rank-crash schedule must produce a structured
// DeadlockError naming the crashed rank and the survivors' wait states —
// not a hang and not a bare "timed out" string.
func TestChaosCrash(t *testing.T) {
	part, a, x, b := chaosSetup(t)
	_, err := parallel.Run(a, x, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(
				fault.Plan{Seed: 1, Crash: map[int]int{2: 5}},
				// A retry budget far beyond the watchdog window, so the
				// stall monitor — not retry exhaustion — classifies the
				// failure.
				fault.ReliableOptions{MaxAttempts: 1 << 20},
			),
			Timeout: 500 * time.Millisecond,
		},
	})
	if err == nil {
		t.Fatal("crash schedule completed without error")
	}
	var dead *machine.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("error %T is not a *machine.DeadlockError: %v", err, err)
	}
	if len(dead.Crashed) != 1 || dead.Crashed[0] != 2 {
		t.Errorf("crashed ranks %v, want [2]", dead.Crashed)
	}
	if len(dead.Waits) == 0 {
		t.Error("no blocked-rank diagnostics in DeadlockError")
	}
	for _, w := range dead.Waits {
		if w.Rank == 2 {
			t.Errorf("crashed rank 2 also listed as waiting: %+v", w)
		}
		if w.Kind != machine.BlockSend && w.Kind != machine.BlockRecv {
			t.Errorf("rank %d has unexpected wait kind %v", w.Rank, w.Kind)
		}
	}
}

// TestChaosCrashAllToAll: the collective wiring must fail just as
// legibly.
func TestChaosCrashAllToAll(t *testing.T) {
	part, a, x, b := chaosSetup(t)
	_, err := parallel.Run(a, x, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringAllToAll,
		Machine: machine.RunConfig{
			Transport: fault.Transport(
				fault.Plan{Seed: 4, Crash: map[int]int{7: 3}},
				fault.ReliableOptions{MaxAttempts: 1 << 20},
			),
			Timeout: 500 * time.Millisecond,
		},
	})
	var dead *machine.DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("error %T is not a *machine.DeadlockError: %v", err, err)
	}
	if len(dead.Crashed) != 1 || dead.Crashed[0] != 7 {
		t.Errorf("crashed ranks %v, want [7]", dead.Crashed)
	}
}
