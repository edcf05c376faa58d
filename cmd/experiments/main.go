// Command experiments regenerates every table, figure and analytic claim
// of the paper. With no arguments it prints every experiment's
// paper-vs-measured rows in Markdown, the source of the numbers recorded
// in EXPERIMENTS.md; its subcommands print the paper's tables and figure
// in full, in the paper's own layout, and replay recorded traces.
//
// Usage:
//
//	experiments                         # run every experiment
//	experiments -e comm                 # only experiment E1 (communication optimality)
//	experiments partition -q 3          # Tables 1 and 2: R_p, N_p, D_p and Q_i
//	experiments partition -sqs8         # Table 3 (m=8, P=14)
//	experiments commsched -sqs8         # Figure 1: the 12-step schedule, P=14
//	experiments steiner -q 3            # build, verify and list a Steiner system
//	experiments plan -n 1000 -maxp 400  # cost every admissible machine
//	experiments trace -gantt e.jsonl    # replay a trace from sttsvrun -events
//
// Experiments: tables (T1–T3), figure (F1), comm (E1), flops (E2),
// steps (E3), alltoall (E4), seq (E5), baseline (E6), hopm (E7), cp (E8),
// seqapproach (E9), io (E10), timeline (E11). An unknown experiment or
// subcommand name prints the valid names and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hopm"
	"repro/internal/intmath"
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

// experiments lists the -e names in the order a full run prints them.
var experiments = []struct {
	name string
	run  func(io.Writer) error
}{
	{"tables", tables},
	{"figure", figure},
	{"comm", comm},
	{"flops", flops},
	{"steps", steps},
	{"alltoall", alltoall},
	{"seq", seq},
	{"baseline", baseline},
	{"hopm", hopmExp},
	{"cp", cpExp},
	{"seqapproach", seqApproach},
	{"io", ioExp},
	{"timeline", timelineExp},
}

// subcommands print one paper artifact in full or replay a trace; each
// takes its own flags.
var subcommands = []struct {
	name string
	run  func(args []string, stdout, stderr io.Writer) int
}{
	{"steiner", steinerCmd},
	{"partition", partitionCmd},
	{"commsched", commschedCmd},
	{"plan", planCmd},
	{"trace", traceCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code: 0 on
// success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		for _, c := range subcommands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		return unknownName(stderr, "subcommand", args[0])
	}
	fs := newFlagSet("experiments", stderr)
	which := fs.String("e", "all", "experiment to run: "+experimentNames()+"|all")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	found := false
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		found = true
		if err := e.run(stdout); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if !found {
		return unknownName(stderr, "experiment", *which)
	}
	return 0
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// unknownName reports a misspelt experiment or subcommand with the valid
// names, so a typo fails loudly instead of running nothing.
func unknownName(stderr io.Writer, kind, name string) int {
	subs := make([]string, len(subcommands))
	for i, c := range subcommands {
		subs[i] = c.name
	}
	fmt.Fprintf(stderr, "experiments: unknown %s %q\n", kind, name)
	fmt.Fprintf(stderr, "experiments (-e): %s|all\n", experimentNames())
	fmt.Fprintf(stderr, "subcommands: %s\n", strings.Join(subs, "|"))
	return 2
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses a command's flags. When ok is false the command must
// exit with code: 0 after -h, 2 on a bad flag or a stray argument.
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	case fs.NArg() > 0:
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2, false
	}
	return 0, true
}

// timelineExp (E11) traces fault-free Algorithm 5 runs, replays them on
// the simulated α-β clock, and checks the observed step count (one
// message tag per step) and phase time against the closed-form
// schedule-length formulas: the barrier-free P2P wiring's q³/2+3q²/2−1
// steps replaying to Σ(α + maxWords·β) — at these b every rank sends equal
// words in every step, so the dependency critical path is the stepwise
// sum — and the All-to-All wiring's P−1 rounds of 2·maxChunk-word
// messages replaying to (P−1)(α + 2·maxChunk·β).
func timelineExp(w io.Writer) error {
	fmt.Fprintln(w, "## E11: replayed timeline vs schedule-length formulas (α=10µs, β=10ns, γ=0)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | P | p2p replay steps | q³/2+3q²/2−1 | p2p replay time | Σ(α+maxW·β) | a2a meter steps | a2a replay steps | P−1 | a2a replay time | (P−1)(α+2·maxChunk·β) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
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
		var recA obs.Recorder
		resA, err := parallel.Run(nil, x, parallel.Options{
			Part: part, B: b, Wiring: parallel.WiringAllToAll,
			Machine: machine.RunConfig{Timeout: time.Minute, Observer: recA.Observer()},
		})
		if err != nil {
			return err
		}
		a2aSteps := resA.Phase("gather").Steps
		if a2aSteps != part.P-1 {
			return fmt.Errorf("q=%d: all-to-all meters %d steps, want P-1 = %d", q, a2aSteps, part.P-1)
		}
		tlA, err := obs.Replay(recA.Trace(), model)
		if err != nil {
			return err
		}
		maxChunk := 0
		for _, sharers := range part.Qi {
			maxChunk = max(maxChunk, intmath.CeilDiv(b, len(sharers)))
		}
		gotStepsA, gotTimeA := tlA.PhaseSteps["gather"], tlA.PhaseTime("gather")
		wantTimeA := schedule.AllToAllMakespan(part.P, 2*maxChunk, model.Alpha, model.Beta)
		if gotStepsA != part.P-1 {
			return fmt.Errorf("q=%d: all-to-all replay counts %d steps, want P-1 = %d", q, gotStepsA, part.P-1)
		}
		if math.Abs(gotTimeA-wantTimeA) > 1e-9*wantTimeA {
			return fmt.Errorf("q=%d: all-to-all replay time %g, closed form %g", q, gotTimeA, wantTimeA)
		}
		fmt.Fprintf(w, "| %d | %d | %d | %d | %.4gs | %.4gs | %d | %d | %d | %.4gs | %.4gs |\n",
			q, part.P, gotSteps, wantSteps, gotTime, wantTime, a2aSteps, gotStepsA, part.P-1, gotTimeA, wantTimeA)
	}
	return nil
}

func tables(w io.Writer) error {
	fmt.Fprintln(w, "## T1–T3: tetrahedral block partitions (paper Tables 1–3)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| system | m | P | \\|Rp\\| | \\|Np\\| | central assigned | \\|Qi\\| | valid |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	row := func(name string, part *partition.Tetrahedral) {
		central := 0
		for p := 0; p < part.P; p++ {
			central += len(part.Dp[p])
		}
		valid := "yes"
		if err := part.Validate(); err != nil {
			valid = "NO: " + err.Error()
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %d | %s |\n",
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

func seqApproach(w io.Writer) error {
	fmt.Fprintln(w, "## E9: the §8 sequence approach (M = A×₃x, then y = M·x) moves Ω(n) words")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| n | P | sequence words/proc | alg5 words/proc (q s.t. P=q(q²+1)) |")
	fmt.Fprintln(w, "|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %d |\n",
			n, part.P, seqRes.Report.MaxSentWords(), optRes.Report.MaxSentWords())
	}
	return nil
}

func ioExp(w io.Writer) error {
	fmt.Fprintln(w, "## E10: sequential I/O of the blocked kernel (LRU cache simulation)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| cache words | unblocked traffic | blocked traffic (b=8) | compulsory |")
	fmt.Fprintln(w, "|---|---|---|---|")
	n, blockEdge := 48, 8
	for _, mWords := range []int{32, 64, 128, 1024} {
		cu := memsim.NewCache(mWords, 1)
		unblocked := memsim.TracePacked(n, cu)
		cb := memsim.NewCache(mWords, 1)
		blocked := memsim.TraceBlocked(n, blockEdge, cb)
		fmt.Fprintf(w, "| %d | %d | %d | %d |\n", mWords, unblocked, blocked, memsim.CompulsoryWords(n))
	}
	return nil
}

func figure(w io.Writer) error {
	fmt.Fprintln(w, "## F1: point-to-point schedule for SQS(8), P=14 (paper Figure 1)")
	fmt.Fprintln(w)
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
	fmt.Fprintf(w, "| quantity | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(w, "| schedule steps | 12 | %d |\n", sched.NumSteps())
	fmt.Fprintf(w, "| all-to-all steps (P−1) | 13 | %d |\n", part.P-1)
	return nil
}

func comm(w io.Writer) error {
	fmt.Fprintln(w, "## E1: Algorithm 5 (p2p wiring) communication vs Theorem 5.2 lower bound")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | P | n | measured words/proc | model 2(n(q+1)/(q²+1)−n/P) | lower bound | measured/bound |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %d | %.1f | %.1f | %.3f |\n",
			q, part.P, n, measured, model, lb, float64(measured)/lb)
	}
	return nil
}

func flops(w io.Writer) error {
	fmt.Fprintln(w, "## E2: computational load balance vs n³/(2P) (§7.1)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | P | n | total ternary | n²(n+1)/2 | max/proc | n³/(2P) | max/leading |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %d | %d | %d | %.0f | %.3f |\n",
			q, part.P, n, total, costmodel.TernaryTotal(n), mx, lead, float64(mx)/lead)
	}
	return nil
}

func steps(w io.Writer) error {
	fmt.Fprintln(w, "## E3: schedule length vs q³/2+3q²/2−1 (§7.2.2)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | P | measured steps | theory | all-to-all (P−1) |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, q := range []int{2, 3, 4} {
		part, err := partition.NewSpherical(q)
		if err != nil {
			return err
		}
		sched, err := schedule.Build(part)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %d | %d | %d | %d | %d |\n",
			q, part.P, sched.NumSteps(), schedule.TheoreticalSteps(q), part.P-1)
	}
	return nil
}

func alltoall(w io.Writer) error {
	fmt.Fprintln(w, "## E4: All-to-All wiring costs 4n/(q+1)(1−1/P) ≈ 2× the bound's leading term (§7.2.2)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | n | measured words/proc | model | measured/optimal-wiring | 2(q²+1)/(q+1)² |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %.1f | %.3f | %.3f |\n",
			q, n, measured, costmodel.AllToAllWords(n, q),
			float64(measured)/float64(resP.Report.MaxSentWords()),
			2*float64(q*q+1)/float64((q+1)*(q+1)))
	}
	return nil
}

func seq(w io.Writer) error {
	fmt.Fprintln(w, "## E5: Algorithm 4 does ≈ half the ternary mults of Algorithm 3 (§3)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| n | naive ternary (n³) | symmetric ternary (n²(n+1)/2) | ratio | naive time | symmetric time |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %.3f | %v | %v |\n",
			n, sn.TernaryMults, sp.TernaryMults,
			float64(sp.TernaryMults)/float64(sn.TernaryMults), tn, tp)
	}
	return nil
}

func baseline(w io.Writer) error {
	fmt.Fprintln(w, "## E6: Algorithm 5 vs 1D row partition (Θ(n/P^{1/3}) vs Θ(n) words)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| q | P | n | alg5 words/proc | baseline words/proc | ratio | P^{1/3} |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
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
		fmt.Fprintf(w, "| %d | %d | %d | %.0f | %.0f | %.2f | %.2f |\n",
			q, part.P, n, ow, bw, bw/ow, math.Cbrt(float64(part.P)))
	}
	return nil
}

func hopmExp(w io.Writer) error {
	fmt.Fprintln(w, "## E7: higher-order power method (Algorithm 1) convergence")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workload | n | lambda | iterations | residual | converged |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
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
	fmt.Fprintf(w, "| hypergraph (60 vertices, 400 edges) | 60 | %.6g | %d | %.3g | %v |\n",
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
	fmt.Fprintf(w, "| planted rank-1 (λ=3) | 80 | %.6g | %d | %.3g | %v |\n",
		pair2.Lambda, pair2.Iterations, pair2.Residual, pair2.Converged)
	return nil
}

func cpExp(w io.Writer) error {
	fmt.Fprintln(w, "## E8: symmetric CP gradient (Algorithm 2) and decomposition")
	fmt.Fprintln(w)
	// Planted rank-3 recovery from a perturbed start.
	n, r := 12, 3
	rng := rand.New(rand.NewSource(7))
	planted := la.NewMatrix(n, r)
	for i := range planted.Data {
		planted.Data[i] = rng.NormFloat64()
	}
	vecs := make([][]float64, r)
	weights := make([]float64, r)
	for l := 0; l < r; l++ {
		vecs[l] = planted.Col(l)
		weights[l] = 1
	}
	a, err := tensor.CP(weights, vecs)
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
	fmt.Fprintln(w, "| quantity | value |")
	fmt.Fprintln(w, "|---|---|")
	fmt.Fprintf(w, "| planted rank | %d |\n", r)
	fmt.Fprintf(w, "| start objective | %.6g |\n", start)
	fmt.Fprintf(w, "| final objective | %.3g |\n", res.Objective)
	fmt.Fprintf(w, "| gradient steps | %d |\n", res.Iterations)
	fmt.Fprintf(w, "| gradient-vs-FD check | see internal/hopm tests |\n")
	return nil
}
