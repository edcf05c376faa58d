// Command sttsvrun exercises the STTSV kernels and the higher-order power
// method on synthetic symmetric tensors from the command line.
//
// Usage:
//
//	sttsvrun -n 128                 # compare Algorithms 3 and 4 on a random tensor
//	sttsvrun -n 120 -q 3            # also run the simulated parallel Algorithm 5
//	sttsvrun -n 64 -hopm            # find a Z-eigenpair with (SS-)HOPM
//	sttsvrun -n 64 -hopm -shift 10  # shifted power method
//
// With -q, a fault schedule can be injected into the simulated machine;
// the run then repeats Algorithm 5 over the reliable transport and checks
// that results and logical communication meters match the fault-free run,
// reporting the wire-level recovery overhead:
//
//	sttsvrun -n 120 -q 3 -faults seed=7,drop=0.2,reorder=0.1
//
// The simulated runs can be traced and replayed under an α-β-γ time
// model; each wiring writes its own file (a .p2p / .all-to-all suffix is
// inserted before the extension):
//
//	sttsvrun -n 120 -q 3 -trace trace.json      # chrome://tracing / Perfetto
//	sttsvrun -n 120 -q 3 -events run.jsonl      # raw events, for experiments trace
//	sttsvrun -n 120 -q 3 -timeline              # replay summary + ASCII Gantt
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/hopm"
	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// obsConfig gathers the observability flags applied to the parallel runs.
type obsConfig struct {
	trace    string  // Chrome trace_event JSON path
	events   string  // raw trace JSONL path
	metrics  string  // flat metrics JSONL path
	timeline bool    // print replay summary + Gantt
	gate     float64 // fail if measured wall-clock exceeds gate × predicted makespan
	model    obs.TimeModel
}

func (o *obsConfig) active() bool {
	return o.trace != "" || o.events != "" || o.metrics != "" || o.timeline || o.gate > 0
}

func main() {
	n := flag.Int("n", 128, "tensor dimension")
	seed := flag.Int64("seed", 1, "random seed")
	q := flag.Int("q", 0, "also run parallel Algorithm 5 with this prime power (0 = skip)")
	faults := flag.String("faults", "", "fault schedule for the simulated machine (with -q), e.g. seed=7,drop=0.2,dup=0.1,reorder=0.1,corrupt=0.05,stall=0.01,crash=2@40")
	rec := flag.Bool("recover", false, "run the faulted configuration through a crash-recovering session: rank deaths relaunch the machine and replay instead of failing the run (with -q and -faults)")
	runHopm := flag.Bool("hopm", false, "run the higher-order power method")
	shift := flag.Float64("shift", 0, "SS-HOPM shift (with -hopm)")
	bf := backendflag.RegisterDistributed(flag.CommandLine)
	dist := flag.Bool("dist", false, "coordinator mode: fork one -rank=K process per rank and supervise a distributed power method (requires -q and -backend=tcp|unix)")
	ckptDir := flag.String("ckptdir", "", "checkpoint directory for distributed runs (default: a temporary directory)")
	maxIter := flag.Int("maxiter", 200, "power-method iteration bound (distributed modes)")
	tol := flag.Float64("tol", 1e-12, "power-method convergence tolerance (distributed modes)")
	def := obs.DefaultTimeModel()
	var oc obsConfig
	flag.StringVar(&oc.trace, "trace", "", "write a Chrome trace_event JSON of the replayed run (requires -q; load in chrome://tracing or Perfetto)")
	flag.StringVar(&oc.events, "events", "", "write the raw trace events as JSONL (requires -q; analyze with experiments trace)")
	flag.StringVar(&oc.metrics, "metrics", "", "write flat per-phase/per-rank metrics JSONL (requires -q)")
	flag.BoolVar(&oc.timeline, "timeline", false, "print the replayed α-β-γ timeline summary and Gantt chart (requires -q)")
	flag.Float64Var(&oc.gate, "gate-makespan", 0, "fail unless measured wall-clock makespan stays within this factor of the α-β-γ replay prediction (requires -q; 0 disables)")
	flag.Float64Var(&oc.model.Alpha, "alpha", def.Alpha, "replay time model: per-message latency in seconds")
	flag.Float64Var(&oc.model.Beta, "beta", def.Beta, "replay time model: per-word time in seconds")
	flag.Float64Var(&oc.model.Gamma, "gamma", def.Gamma, "replay time model: per-ternary-multiplication time in seconds")
	flag.Parse()

	if err := bf.Validate(true); err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun:", err)
		os.Exit(2)
	}
	if bf.Worker() || *dist {
		if *q <= 0 {
			fmt.Fprintln(os.Stderr, "sttsvrun: distributed modes require -q (the partition defines the process count)")
			os.Exit(2)
		}
		if *dist && bf.Sim() {
			fmt.Fprintln(os.Stderr, "sttsvrun: -dist requires -backend=tcp or -backend=unix")
			os.Exit(2)
		}
		ccfg := cluster.Config{
			Network: bf.Backend, Q: *q, N: *n, Seed: *seed,
			MaxIter: *maxIter, Tol: *tol, CkptDir: *ckptDir,
			Faults: *faults,
		}
		if bf.Hosts != "" {
			hosts, err := netwire.LoadHosts(bf.Hosts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sttsvrun: -hosts:", err)
				os.Exit(2)
			}
			ccfg.Hosts = hosts
		}
		if bf.Worker() {
			os.Exit(runRankMode(bf, ccfg))
		}
		os.Exit(runDistMode(bf, ccfg))
	}

	if oc.active() && *q <= 0 {
		fmt.Fprintln(os.Stderr, "sttsvrun: -trace/-events/-metrics/-timeline require -q (they observe the simulated machine)")
		os.Exit(2)
	}

	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: -faults:", err)
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("building random symmetric tensor, n=%d (%d packed entries)\n",
		*n, (*n)*(*n+1)*(*n+2)/6)
	a := tensor.Random(*n, rng)
	x := make([]float64, *n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	var stNaive, stPacked sttsv.Stats
	t0 := time.Now()
	yn := sttsv.Naive(a.Dense(), x, &stNaive)
	tNaive := time.Since(t0)
	t0 = time.Now()
	yp := sttsv.Packed(a, x, &stPacked)
	tPacked := time.Since(t0)

	maxDiff := 0.0
	for i := range yn {
		if d := abs(yn[i] - yp[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("Algorithm 3 (naive):     %12d ternary mults  %v\n", stNaive.TernaryMults, tNaive)
	fmt.Printf("Algorithm 4 (symmetric): %12d ternary mults  %v\n", stPacked.TernaryMults, tPacked)
	fmt.Printf("agreement: max |Δy| = %.3g\n", maxDiff)

	if *rec && !plan.Active() {
		fmt.Fprintln(os.Stderr, "sttsvrun: -recover requires -faults (it changes how fault-injected runs handle crashes)")
		os.Exit(2)
	}
	if *q > 0 {
		runParallel(a, x, yp, *q, plan, *rec, &oc, bf)
	} else if plan.Active() {
		fmt.Fprintln(os.Stderr, "sttsvrun: -faults requires -q (faults apply to the simulated machine)")
		os.Exit(2)
	}
	if *runHopm {
		pair, err := hopm.PowerMethod(hopm.PackedSTTSV(a), *n, hopm.Options{Seed: *seed, Shift: *shift, MaxIter: 10000})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttsvrun:", err)
			os.Exit(1)
		}
		fmt.Printf("HOPM: lambda=%.8g iterations=%d residual=%.3g converged=%v\n",
			pair.Lambda, pair.Iterations, pair.Residual, pair.Converged)
	}
}

func runParallel(a *tensor.Symmetric, x, want []float64, q int, plan fault.Plan, recoverCrash bool, oc *obsConfig, bf *backendflag.Options) {
	part, err := partition.NewSpherical(q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun:", err)
		os.Exit(1)
	}
	n := len(x)
	b := (n + part.M - 1) / part.M
	fmt.Printf("\nparallel Algorithm 5: q=%d, P=%d, m=%d, b=%d (padded n=%d, backend=%s)\n",
		q, part.P, part.M, b, part.M*b, bf.Backend)
	for _, wiring := range []parallel.Wiring{parallel.WiringP2P, parallel.WiringAllToAll} {
		var rec obs.Recorder
		var cfg machine.RunConfig
		if oc.active() {
			cfg.Observer = rec.Observer()
		}
		bf.Apply(&cfg)
		res, err := parallel.Run(a, x, parallel.Options{Part: part, B: b, Wiring: wiring, Machine: cfg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttsvrun:", err)
			os.Exit(1)
		}
		maxDiff := 0.0
		for i := range want {
			if d := abs(res.Y[i] - want[i]); d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Printf("  %-11s steps/phase=%-3d max words sent=%-6d (lower bound %.1f)  max |Δy| = %.3g\n",
			wiring, res.Steps, res.Report.MaxSentWords(),
			costmodel.LowerBoundWords(n, part.P), maxDiff)
		fmt.Printf("              %s\n", res.Report)
		if oc.active() {
			exportObservability(rec.Trace(), res, wiring, oc)
		}
		if plan.Active() {
			runFaulted(a, x, wiring, part, b, plan, recoverCrash, res, bf)
		}
	}
}

// exportObservability replays one wiring's trace and writes/prints the
// requested artifacts.
func exportObservability(tr *obs.Trace, res *parallel.Result, wiring parallel.Wiring, oc *obsConfig) {
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: trace conformance:", err)
		os.Exit(1)
	}
	tl, err := obs.Replay(tr, oc.model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: replay:", err)
		os.Exit(1)
	}
	if oc.events != "" {
		writeFile(wiringPath(oc.events, wiring), func(f *os.File) error {
			return obs.WriteTraceJSONL(f, tr)
		})
	}
	if oc.trace != "" {
		writeFile(wiringPath(oc.trace, wiring), func(f *os.File) error {
			return obs.WriteChromeTrace(f, tl)
		})
	}
	if oc.metrics != "" {
		writeFile(wiringPath(oc.metrics, wiring), func(f *os.File) error {
			return obs.WriteMetricsJSONL(f, tr, tl)
		})
	}
	if oc.timeline || oc.gate > 0 {
		measured := tr.WallSpan()
		predicted := tl.Makespan()
		ratio := 0.0
		if predicted > 0 {
			ratio = measured / predicted
		}
		fmt.Printf("              makespan: measured %.4gs, α-β-γ predicted %.4gs (×%.2f)\n",
			measured, predicted, ratio)
		if oc.gate > 0 && measured > oc.gate*predicted {
			fmt.Fprintf(os.Stderr, "sttsvrun: measured makespan %.4gs exceeds %.3g× the α-β-γ prediction %.4gs\n",
				measured, oc.gate, predicted)
			os.Exit(1)
		}
	}
	if oc.timeline {
		fmt.Printf("              replay (α=%.3g β=%.3g γ=%.3g): makespan %.4gs\n",
			oc.model.Alpha, oc.model.Beta, oc.model.Gamma, tl.Makespan())
		for _, label := range tl.PhaseOrder {
			fmt.Printf("                %-15s %.4gs", label, tl.PhaseTime(label))
			if s := tl.PhaseSteps[label]; s > 0 {
				fmt.Printf("  (%d steps)", s)
			}
			fmt.Println()
		}
		if err := obs.WriteGantt(os.Stdout, tl, 72); err != nil {
			fmt.Fprintln(os.Stderr, "sttsvrun:", err)
			os.Exit(1)
		}
	}
}

// wiringPath inserts the wiring name before the path's extension, so the
// two wirings of one invocation write distinct files.
func wiringPath(path string, w parallel.Wiring) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + w.String() + ext
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun:", err)
		os.Exit(1)
	}
	fmt.Printf("              wrote %s\n", path)
}

// runFaulted repeats one Algorithm 5 configuration over the reliable
// transport with the plan's faults injected and compares it against the
// fault-free run just completed.
func runFaulted(a *tensor.Symmetric, x []float64, wiring parallel.Wiring,
	part *partition.Tetrahedral, b int, plan fault.Plan, recoverCrash bool, clean *parallel.Result, bf *backendflag.Options) {
	fmt.Printf("  %-11s faults: %s\n", wiring, plan)
	// A retry budget far beyond the watchdog window: a crashed rank is
	// then reported by the progress monitor as one structured deadlock
	// (naming the crashed rank and every blocked peer) instead of a slow
	// cascade of per-sender retry exhaustions.
	opts := parallel.Options{
		Part: part, B: b, Wiring: wiring,
		Machine: machine.RunConfig{
			Transport: fault.Transport(plan, fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout:   5 * time.Second,
		},
	}
	bf.Apply(&opts.Machine)
	var res *parallel.Result
	var err error
	if recoverCrash {
		// The factory fires each rank's crash once, so a relaunched
		// machine does not re-crash on the replay.
		opts.Recovery = &parallel.RecoveryOptions{}
		var s *parallel.Session
		s, err = parallel.OpenSession(a, opts)
		if err == nil {
			res, err = s.Apply(x)
			if err == nil {
				st := s.RecoveryStats()
				fmt.Printf("              recovery: %d rank deaths, %d retries, %d rollbacks, %d relaunches (epoch %d)\n",
					st.RankDowns, st.Retries, st.Rollbacks, st.Relaunches, st.Epoch)
			}
			s.Close()
		}
	} else {
		res, err = parallel.Run(a, x, opts)
	}
	if err != nil {
		fmt.Printf("              failed: %v\n", err)
		return
	}
	exact := true
	for i := range clean.Y {
		if res.Y[i] != clean.Y[i] {
			exact = false
			break
		}
	}
	metersMatch := res.Report.MaxSentWords() == clean.Report.MaxSentWords() &&
		res.Report.MaxSentMsgs() == clean.Report.MaxSentMsgs() &&
		res.Report.MaxRecvWords() == clean.Report.MaxRecvWords() &&
		res.Report.MaxRecvMsgs() == clean.Report.MaxRecvMsgs()
	fmt.Printf("              result bit-identical=%v, logical meters preserved=%v\n", exact, metersMatch)
	fmt.Printf("              %s\n", res.Report)
	fmt.Printf("              recovery overhead: %d words, %d packets beyond the %d logical messages\n",
		res.Report.OverheadWords(),
		res.Report.MaxWireSentMsgs()-res.Report.MaxSentMsgs(), res.Report.MaxSentMsgs())
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
