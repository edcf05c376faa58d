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
// With -q, -events records each wiring's run as JSONL trace events,
// checked against the run's meters before they are written (a .p2p /
// .all-to-all suffix is inserted before the extension). experiments trace
// replays a recording under an α-β-γ time model, converts it and gates
// its measured makespan:
//
//	sttsvrun -n 120 -q 3 -events run.jsonl
//	experiments trace -timeline -gantt run.p2p.jsonl
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
	events := flag.String("events", "", "write each wiring's trace events as JSONL (requires -q; replay, convert and gate with experiments trace)")
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

	if *events != "" && *q <= 0 {
		fmt.Fprintln(os.Stderr, "sttsvrun: -events requires -q (it observes the simulated machine)")
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
		runParallel(a, x, yp, *q, plan, *rec, *events, bf)
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

func runParallel(a *tensor.Symmetric, x, want []float64, q int, plan fault.Plan, recoverCrash bool, events string, bf *backendflag.Options) {
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
		if events != "" {
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
		if events != "" {
			writeEvents(rec.Trace(), res.Report, wiringPath(events, wiring))
		}
		if plan.Active() {
			runFaulted(a, x, wiring, part, b, plan, recoverCrash, res, bf)
		}
	}
}

// wiringPath inserts the wiring name before the path's extension, so the
// two wirings of one invocation write distinct files.
func wiringPath(path string, w parallel.Wiring) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + w.String() + ext
}

// writeEvents checks one wiring's trace against the run's logical meters
// and writes it as JSONL.
func writeEvents(tr *obs.Trace, rep *machine.Report, path string) {
	if err := tr.CheckAgainstReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: trace conformance:", err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err == nil {
		err = obs.WriteTraceJSONL(f, tr)
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
