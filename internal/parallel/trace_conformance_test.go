package parallel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// checkTraceMatchesPhases verifies the trace-conformance invariant at
// phase granularity: the summed trace events of each phase equal the
// Result's snapshot-based PhaseMeters exactly, per rank — two independent
// measurement paths (event stream vs counter deltas) agreeing on every
// number.
func checkTraceMatchesPhases(t *testing.T, tr *obs.Trace, phases []PhaseMeter, p int) {
	t.Helper()
	totals, _ := tr.PhaseTotals()
	for _, m := range phases {
		pt := totals[m.Label]
		if pt == nil {
			if m.TotalSentWords() == 0 && m.TotalTernary() == 0 {
				continue // a phase with no traffic need not appear in the trace
			}
			t.Fatalf("phase %q missing from trace", m.Label)
		}
		for r := 0; r < p; r++ {
			if pt.SentWords[r] != m.SentWords[r] || pt.SentMsgs[r] != m.SentMsgs[r] {
				t.Errorf("phase %q rank %d: trace sent %dw/%dm, meter %dw/%dm",
					m.Label, r, pt.SentWords[r], pt.SentMsgs[r], m.SentWords[r], m.SentMsgs[r])
			}
			if pt.RecvWords[r] != m.RecvWords[r] || pt.RecvMsgs[r] != m.RecvMsgs[r] {
				t.Errorf("phase %q rank %d: trace recv %dw/%dm, meter %dw/%dm",
					m.Label, r, pt.RecvWords[r], pt.RecvMsgs[r], m.RecvWords[r], m.RecvMsgs[r])
			}
			if pt.Ternary[r] != m.Ternary[r] {
				t.Errorf("phase %q rank %d: trace ternary %d, meter %d",
					m.Label, r, pt.Ternary[r], m.Ternary[r])
			}
		}
		// The trace counts one step per message tag in each phase
		// occurrence, and both wirings send each step of an exchange under
		// its own tag; the meter does not count the all-reduce's steps.
		scheduled := m.Label == "gather" || m.Label == "reduce-scatter"
		if scheduled && pt.Steps != m.Steps {
			t.Errorf("phase %q: trace counts %d steps, meter %d", m.Label, pt.Steps, m.Steps)
		}
	}
}

// TestTraceConformanceP2P is the headline acceptance check: for fault-free
// point-to-point runs the trace events sum to the Report meters exactly
// (per rank and per phase), the replayed step count equals the
// q³/2+3q²/2−1 schedule length, and the replayed phase time equals the
// closed-form α-β makespan.
func TestTraceConformanceP2P(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		sched, err := schedule.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		b := q * (q + 1) * 2
		n := part.M * b
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		var rec obs.Recorder
		res, err := Run(nil, x, Options{
			Part: part, B: b, Wiring: WiringP2P,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()

		if err := tr.CheckAgainstReport(res.Report); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		checkTraceMatchesPhases(t, tr, res.Phases, part.P)

		// γ=0 keeps every rank's phase entry synchronized, so each phase
		// replays to exactly the closed-form stepwise makespan (with γ>0
		// the compute imbalance would bleed wait time into the second
		// exchange's first receives).
		model := obs.TimeModel{Alpha: 1e-5, Beta: 1e-8, Gamma: 0}
		tl, err := obs.Replay(tr, model)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		wantSteps := schedule.TheoreticalSteps(q)
		if q == 3 && wantSteps != 26 {
			t.Fatalf("q=3 schedule length %d, want 26 = q³/2+3q²/2−1", wantSteps)
		}
		for _, label := range []string{"gather", "reduce-scatter"} {
			if tl.PhaseSteps[label] != wantSteps {
				t.Errorf("q=%d phase %q: replay counts %d steps, want %d",
					q, label, tl.PhaseSteps[label], wantSteps)
			}
		}
		if res.Steps != wantSteps {
			t.Errorf("q=%d: Result.Steps = %d, want %d", q, res.Steps, wantSteps)
		}

		// The replay semantics reproduce the closed-form stepwise cost: at
		// this b every rank sends equal words in every step, so the
		// barrier-free exchange's critical path is exactly Σ(α + maxWords·β).
		want := sched.Makespan(part, b, model.Alpha, model.Beta)
		for _, label := range []string{"gather", "reduce-scatter"} {
			got := tl.PhaseTime(label)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("q=%d phase %q: replay time %g, closed-form makespan %g", q, label, got, want)
			}
		}
	}
}

// TestTraceConformanceAllToAll repeats the invariant under the All-to-All
// wiring: P−1 steps per phase and phase meters that match the trace.
func TestTraceConformanceAllToAll(t *testing.T) {
	q := 2
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b
	x := make([]float64, n)
	var rec obs.Recorder
	res, err := Run(nil, x, Options{
		Part: part, B: b, Wiring: WiringAllToAll,
		Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesPhases(t, tr, res.Phases, part.P)

	// Each of the P−1 rounds sends under its own tag, so the trace counts
	// P−1 steps per phase, as the meter does, and with γ=0 each phase
	// replays to P−1 rounds of one 2·maxChunk-word message (maxChunk = 1
	// at b = |Q_i| = q(q+1)).
	model := obs.TimeModel{Alpha: 1e-5, Beta: 1e-8, Gamma: 0}
	tl, err := obs.Replay(tr, model)
	if err != nil {
		t.Fatal(err)
	}
	want := schedule.AllToAllMakespan(part.P, 2, model.Alpha, model.Beta)
	for _, label := range []string{"gather", "reduce-scatter"} {
		if tl.PhaseSteps[label] != part.P-1 {
			t.Errorf("phase %q: replay counts %d steps, want P-1 = %d", label, tl.PhaseSteps[label], part.P-1)
		}
		if m := res.Phase(label); m == nil || m.Steps != part.P-1 {
			t.Errorf("phase %q: meter steps = %+v, want P-1 = %d", label, m, part.P-1)
		}
		if got := tl.PhaseTime(label); math.Abs(got-want) > 1e-9*want {
			t.Errorf("phase %q: replay time %g, (P−1)(α+2β) = %g", label, got, want)
		}
	}
}

// TestTraceConformanceUnderFaults runs Algorithm 5 over a lossy wire with
// the reliable transport and wire events enabled: the logical trace and
// phase meters must be bit-identical to a fault-free run's accounting
// (the logical-vs-wire invariant), while the wire trace shows the
// recovery traffic.
func TestTraceConformanceUnderFaults(t *testing.T) {
	q := 2
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	plan := fault.Plan{Seed: 42, Drop: 0.08, Dup: 0.05, Reorder: 0.05, MaxFaults: 200}
	var rec obs.Recorder
	res, err := Run(nil, x, Options{
		Part: part, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{
			Timeout:    20 * time.Second,
			Observer:   rec.Observer(),
			WireEvents: true,
			Transport:  fault.Transport(plan, fault.ReliableOptions{}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()

	// Logical accounting is untouched by the faults.
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesPhases(t, tr, res.Phases, part.P)

	// The wire actually diverged: acks at minimum, plus retransmissions
	// and duplicates, mean strictly more wire packets than logical
	// messages.
	var logicalMsgs, wireMsgs int64
	rank := tr.RankTotals()
	for r := 0; r < part.P; r++ {
		logicalMsgs += rank.SentMsgs[r]
	}
	wireTotals, _ := tr.WireTotals()
	for _, wt := range wireTotals {
		for r := 0; r < part.P; r++ {
			wireMsgs += wt.SentMsgs[r]
		}
	}
	if wireMsgs <= logicalMsgs {
		t.Errorf("wire trace records %d packets vs %d logical messages; expected recovery overhead",
			wireMsgs, logicalMsgs)
	}

	// The replayed logical timeline still counts the schedule's steps.
	tl, err := obs.Replay(tr, obs.DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	if want := schedule.TheoreticalSteps(q); tl.PhaseSteps["gather"] != want {
		t.Errorf("gather steps %d under faults, want %d", tl.PhaseSteps["gather"], want)
	}
}

// TestTraceConformancePowerMethod extends the invariant to the resident
// power method: the summed trace of a full multi-iteration run matches
// both the run report and the accumulated per-phase meters — in
// particular the exchange meters' step counts, which must scale with the
// iterations executed (the seed reported a single application's worth).
func TestTraceConformancePowerMethod(t *testing.T) {
	q := 2
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b
	rng := rand.New(rand.NewSource(17))
	a := tensor.Random(n, rng)
	const iters = 4
	var rec obs.Recorder
	res, err := RunPowerMethod(a,
		Options{
			Part: part, B: b, Wiring: WiringP2P,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
		},
		PowerOptions{MaxIter: iters, Tol: 1e-300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want the full cap %d", res.Iterations, iters)
	}
	tr := rec.Trace()
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesPhases(t, tr, res.Phases, part.P)

	wantSteps := schedule.TheoreticalSteps(q) * iters
	for _, label := range []string{"gather", "reduce-scatter"} {
		if m := res.Phase(label); m == nil || m.Steps != wantSteps {
			t.Errorf("phase %q: meter steps = %+v, want schedule length × iterations = %d",
				label, m, wantSteps)
		}
	}
}
