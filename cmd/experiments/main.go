// Command experiments regenerates every table, figure and analytic claim
// of the paper, printing paper-vs-measured rows in Markdown. It is the
// source of the numbers recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -e comm    # only experiment E1 (communication optimality)
//
// Experiments: tables (T1–T3), figure (F1), comm (E1), flops (E2),
// steps (E3), alltoall (E4), seq (E5), baseline (E6), hopm (E7), cp (E8),
// seqapproach (E9), io (E10), timeline (E11).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hopm"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

func main() {
	which := flag.String("e", "all", "experiment to run: tables|figure|comm|flops|steps|alltoall|seq|baseline|hopm|cp|seqapproach|io|timeline|all")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("tables", tables)
	run("figure", figure)
	run("comm", comm)
	run("flops", flops)
	run("steps", steps)
	run("alltoall", alltoall)
	run("seq", seq)
	run("baseline", baseline)
	run("hopm", hopmExp)
	run("cp", cpExp)
	run("seqapproach", seqApproach)
	run("io", ioExp)
	run("timeline", timelineExp)
}

// timelineExp (E11) traces fault-free Algorithm 5 runs, replays them on
// the simulated α-β clock, and checks the observed step count (one
// message tag per step) and phase time against the closed-form
// schedule-length formulas: the barrier-free P2P wiring's q³/2+3q²/2−1
// steps replaying to Σ(α + maxWords·β) — at these b every rank sends equal
// words in every step, so the dependency critical path is the stepwise
// sum — and the All-to-All wiring's nominal P−1 rounds (metered).
func timelineExp() error {
	fmt.Println("## E11: replayed timeline vs schedule-length formulas (α=10µs, β=10ns, γ=0)")
	fmt.Println()
	fmt.Println("| q | P | p2p replay steps | q³/2+3q²/2−1 | p2p replay time | Σ(α+maxW·β) | a2a meter steps | P−1 |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	model := obs.TimeModel{Alpha: 1e-5, Beta: 1e-8, Gamma: 0}
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		sched, err := schedule.Build(part)
		if err != nil {
			return err
		}
		b := q * (q + 1)
		n := part.M * b
		x := make([]float64, n)
		var rec obs.Recorder
		res, err := parallel.Run(nil, x, parallel.Options{
			Part: part, B: b, Wiring: parallel.WiringP2P,
			Machine: machine.RunConfig{Timeout: time.Minute, Observer: rec.Observer()},
		})
		if err != nil {
			return err
		}
		tl, err := obs.Replay(rec.Trace(), model)
		if err != nil {
			return err
		}
		gotSteps := tl.PhaseSteps["gather"]
		wantSteps := schedule.TheoreticalSteps(q)
		gotTime := tl.PhaseTime("gather")
		wantTime := sched.Makespan(part, b, model.Alpha, model.Beta)
		if gotSteps != wantSteps || res.Steps != wantSteps {
			return fmt.Errorf("q=%d: replay counts %d steps, formula %d", q, gotSteps, wantSteps)
		}
		if math.Abs(gotTime-wantTime) > 1e-9*wantTime {
			return fmt.Errorf("q=%d: replay time %g, closed form %g", q, gotTime, wantTime)
		}
		resA, err := parallel.Run(nil, x, parallel.Options{
			Part: part, B: b, Wiring: parallel.WiringAllToAll,
			Machine: machine.RunConfig{Timeout: time.Minute},
		})
		if err != nil {
			return err
		}
		a2aSteps := resA.Phase("gather").Steps
		if a2aSteps != part.P-1 {
			return fmt.Errorf("q=%d: all-to-all meters %d steps, want P-1 = %d", q, a2aSteps, part.P-1)
		}
		fmt.Printf("| %d | %d | %d | %d | %.4gs | %.4gs | %d | %d |\n",
			q, part.P, gotSteps, wantSteps, gotTime, wantTime, a2aSteps, part.P-1)
	}
	return nil
}

func tables() error {
	fmt.Println("## T1–T3: tetrahedral block partitions (paper Tables 1–3)")
	fmt.Println()
	fmt.Println("| system | m | P | \\|Rp\\| | \\|Np\\| | central assigned | \\|Qi\\| | valid |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	row := func(name string, part *partition.Tetrahedral) {
		central := 0
		for p := 0; p < part.P; p++ {
			central += len(part.Dp[p])
		}
		valid := "yes"
		if err := part.Validate(); err != nil {
			valid = "NO: " + err.Error()
		}
		fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %s |\n",
			name, part.M, part.P, part.R, len(part.Np[0]), central, len(part.Qi[0]), valid)
	}
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("spherical q=%d", q), part)
	}
	part, err := partition.New(steiner.SQS8())
	if err != nil {
		return err
	}
	row("SQS(8) (Table 3)", part)
	s16, err := steiner.SQSDoubled(1)
	if err != nil {
		return err
	}
	p16, err := partition.New(s16)
	if err != nil {
		return err
	}
	row("SQS(16) (doubling)", p16)
	return nil
}

func seqApproach() error {
	fmt.Println("## E9: the §8 sequence approach (M = A×₃x, then y = M·x) moves Ω(n) words")
	fmt.Println()
	fmt.Println("| n | P | sequence words/proc | alg5 words/proc (q s.t. P=q(q²+1)) |")
	fmt.Println("|---|---|---|---|")
	for _, q := range []int{2, 3} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		b := q * (q + 1)
		n := part.M * b
		rng := rand.New(rand.NewSource(8))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		seqRes, err := parallel.RunSequenceBaseline(a, x, part.P, machine.RunConfig{})
		if err != nil {
			return err
		}
		optRes, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
		if err != nil {
			return err
		}
		fmt.Printf("| %d | %d | %d | %d |\n",
			n, part.P, seqRes.Report.MaxSentWords(), optRes.Report.MaxSentWords())
	}
	return nil
}

func ioExp() error {
	fmt.Println("## E10: sequential I/O of the blocked kernel (LRU cache simulation)")
	fmt.Println()
	fmt.Println("| cache words | unblocked traffic | blocked traffic (b=8) | compulsory |")
	fmt.Println("|---|---|---|---|")
	n, blockEdge := 48, 8
	for _, mWords := range []int{32, 64, 128, 1024} {
		cu := memsim.NewCache(mWords, 1)
		unblocked := memsim.TracePacked(n, cu)
		cb := memsim.NewCache(mWords, 1)
		blocked := memsim.TraceBlocked(n, blockEdge, cb)
		fmt.Printf("| %d | %d | %d | %d |\n", mWords, unblocked, blocked, memsim.CompulsoryWords(n))
	}
	return nil
}

func figure() error {
	fmt.Println("## F1: point-to-point schedule for SQS(8), P=14 (paper Figure 1)")
	fmt.Println()
	part, err := partition.New(steiner.SQS8())
	if err != nil {
		return err
	}
	sched, err := schedule.Build(part)
	if err != nil {
		return err
	}
	if err := sched.Validate(part); err != nil {
		return err
	}
	fmt.Printf("| quantity | paper | measured |\n|---|---|---|\n")
	fmt.Printf("| schedule steps | 12 | %d |\n", sched.NumSteps())
	fmt.Printf("| all-to-all steps (P−1) | 13 | %d |\n", part.P-1)
	return nil
}

func comm() error {
	fmt.Println("## E1: Algorithm 5 (p2p wiring) communication vs Theorem 5.2 lower bound")
	fmt.Println()
	fmt.Println("| q | P | n | measured words/proc | model 2(n(q+1)/(q²+1)−n/P) | lower bound | measured/bound |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		b := q * (q + 1)
		n := part.M * b
		x := make([]float64, n)
		res, err := parallel.Run(nil, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
		if err != nil {
			return err
		}
		measured := res.Report.MaxSentWords()
		model := costmodel.OptimalWords(n, q)
		lb := costmodel.LowerBoundWords(n, part.P)
		fmt.Printf("| %d | %d | %d | %d | %.1f | %.1f | %.3f |\n",
			q, part.P, n, measured, model, lb, float64(measured)/lb)
	}
	return nil
}

func flops() error {
	fmt.Println("## E2: computational load balance vs n³/(2P) (§7.1)")
	fmt.Println()
	fmt.Println("| q | P | n | total ternary | n²(n+1)/2 | max/proc | n³/(2P) | max/leading |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, q := range []int{2, 3} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		b := q * (q + 1) * 2
		n := part.M * b
		rng := rand.New(rand.NewSource(1))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		res, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
		if err != nil {
			return err
		}
		var total, mx int64
		for _, tm := range res.Ternary {
			total += tm
			if tm > mx {
				mx = tm
			}
		}
		lead := costmodel.TernaryLeading(n, part.P)
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %.0f | %.3f |\n",
			q, part.P, n, total, costmodel.TernaryTotal(n), mx, lead, float64(mx)/lead)
	}
	return nil
}

func steps() error {
	fmt.Println("## E3: schedule length vs q³/2+3q²/2−1 (§7.2.2)")
	fmt.Println()
	fmt.Println("| q | P | measured steps | theory | all-to-all (P−1) |")
	fmt.Println("|---|---|---|---|---|")
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		sched, err := schedule.Build(part)
		if err != nil {
			return err
		}
		fmt.Printf("| %d | %d | %d | %d | %d |\n",
			q, part.P, sched.NumSteps(), schedule.TheoreticalSteps(q), part.P-1)
	}
	return nil
}

func alltoall() error {
	fmt.Println("## E4: All-to-All wiring costs 4n/(q+1)(1−1/P) ≈ 2× the bound's leading term (§7.2.2)")
	fmt.Println()
	fmt.Println("| q | n | measured words/proc | model | measured/optimal-wiring | 2(q²+1)/(q+1)² |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		b := q * (q + 1)
		n := part.M * b
		x := make([]float64, n)
		resA, err := parallel.Run(nil, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringAllToAll})
		if err != nil {
			return err
		}
		resP, err := parallel.Run(nil, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
		if err != nil {
			return err
		}
		measured := resA.Report.MaxSentWords()
		fmt.Printf("| %d | %d | %d | %.1f | %.3f | %.3f |\n",
			q, n, measured, costmodel.AllToAllWords(n, q),
			float64(measured)/float64(resP.Report.MaxSentWords()),
			2*float64(q*q+1)/float64((q+1)*(q+1)))
	}
	return nil
}

func seq() error {
	fmt.Println("## E5: Algorithm 4 does ≈ half the ternary mults of Algorithm 3 (§3)")
	fmt.Println()
	fmt.Println("| n | naive ternary (n³) | symmetric ternary (n²(n+1)/2) | ratio | naive time | symmetric time |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, n := range []int{64, 128, 192} {
		rng := rand.New(rand.NewSource(2))
		a := tensor.Random(n, rng)
		d := a.Dense()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var sn, sp sttsv.Stats
		t0 := time.Now()
		sttsv.Naive(d, x, &sn)
		tn := time.Since(t0)
		t0 = time.Now()
		sttsv.Packed(a, x, &sp)
		tp := time.Since(t0)
		fmt.Printf("| %d | %d | %d | %.3f | %v | %v |\n",
			n, sn.TernaryMults, sp.TernaryMults,
			float64(sp.TernaryMults)/float64(sn.TernaryMults), tn, tp)
	}
	return nil
}

func baseline() error {
	fmt.Println("## E6: Algorithm 5 vs 1D row partition (Θ(n/P^{1/3}) vs Θ(n) words)")
	fmt.Println()
	fmt.Println("| q | P | n | alg5 words/proc | baseline words/proc | ratio | P^{1/3} |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, q := range []int{2, 3} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		b := q * (q + 1)
		n := part.M * b
		rng := rand.New(rand.NewSource(3))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		opt, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
		if err != nil {
			return err
		}
		base, err := parallel.RunRowBaseline(a, x, part.P, machine.RunConfig{})
		if err != nil {
			return err
		}
		ow := float64(opt.Report.MaxSentWords())
		bw := float64(base.Report.MaxSentWords())
		fmt.Printf("| %d | %d | %d | %.0f | %.0f | %.2f | %.2f |\n",
			q, part.P, n, ow, bw, bw/ow, math.Cbrt(float64(part.P)))
	}
	return nil
}

func hopmExp() error {
	fmt.Println("## E7: higher-order power method (Algorithm 1) convergence")
	fmt.Println()
	fmt.Println("| workload | n | lambda | iterations | residual | converged |")
	fmt.Println("|---|---|---|---|---|---|")
	// Hypergraph centrality.
	rng := rand.New(rand.NewSource(4))
	hg, err := tensor.RandomHypergraph(60, 400, rng)
	if err != nil {
		return err
	}
	pair, err := hopm.PowerMethod(hopm.PackedSTTSV(hg), 60, hopm.Options{Seed: 5, MaxIter: 2000})
	if err != nil {
		return err
	}
	fmt.Printf("| hypergraph (60 vertices, 400 edges) | 60 | %.6g | %d | %.3g | %v |\n",
		pair.Lambda, pair.Iterations, pair.Residual, pair.Converged)
	// Planted rank-1.
	v := make([]float64, 80)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	la.Normalize(v)
	r1 := tensor.RankOne(3, v)
	pair2, err := hopm.PowerMethod(hopm.PackedSTTSV(r1), 80, hopm.Options{Seed: 6})
	if err != nil {
		return err
	}
	fmt.Printf("| planted rank-1 (λ=3) | 80 | %.6g | %d | %.3g | %v |\n",
		pair2.Lambda, pair2.Iterations, pair2.Residual, pair2.Converged)
	return nil
}

func cpExp() error {
	fmt.Println("## E8: symmetric CP gradient (Algorithm 2) and decomposition")
	fmt.Println()
	// Planted rank-3 recovery from a perturbed start.
	n, r := 12, 3
	rng := rand.New(rand.NewSource(7))
	planted := la.NewMatrix(n, r)
	for i := range planted.Data {
		planted.Data[i] = rng.NormFloat64()
	}
	vecs := make([][]float64, r)
	w := make([]float64, r)
	for l := 0; l < r; l++ {
		vecs[l] = planted.Col(l)
		w[l] = 1
	}
	a, err := tensor.CP(w, vecs)
	if err != nil {
		return err
	}
	x0 := planted.Clone()
	for i := range x0.Data {
		x0.Data[i] += 0.05 * rng.NormFloat64()
	}
	start := hopm.CPObjective(a, x0)
	res, err := hopm.SymmetricCP(a, r, hopm.CPOptions{X0: x0, MaxIter: 3000})
	if err != nil {
		return err
	}
	fmt.Println("| quantity | value |")
	fmt.Println("|---|---|")
	fmt.Printf("| planted rank | %d |\n", r)
	fmt.Printf("| start objective | %.6g |\n", start)
	fmt.Printf("| final objective | %.3g |\n", res.Objective)
	fmt.Printf("| gradient steps | %d |\n", res.Iterations)
	fmt.Printf("| gradient-vs-FD check | see internal/hopm tests |\n")
	return nil
}
