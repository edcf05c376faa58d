package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// The -parallel mode benchmarks the session engine against per-call Run:
// a fixed-length power method driven from the host, once with a machine
// relaunch per application (the pre-session usage pattern) and once over a
// resident Session. Both loops perform identical arithmetic and identical
// simulated communication; the difference is pure engine overhead —
// goroutine launch, plan rebuild, and per-application allocation.

type parallelConfig struct {
	Q     int `json:"q"`
	P     int `json:"p"`
	M     int `json:"m"`
	B     int `json:"b"`
	N     int `json:"n"`
	Iters int `json:"iters"`
}

type powerMethodBench struct {
	// PerCall: each iteration calls parallel.Run (machine relaunch per
	// application, pre-packed blocks).
	PerCallNsPerIter   float64 `json:"percall_ns_per_iter"`
	PerCallItersPerSec float64 `json:"percall_iters_per_sec"`
	// Session: identical host-driven loop over one resident Session.
	SessionNsPerIter   float64 `json:"session_ns_per_iter"`
	SessionItersPerSec float64 `json:"session_iters_per_sec"`
	// SessionSpeedup = session iters/sec ÷ per-call iters/sec.
	SessionSpeedup float64 `json:"session_speedup"`
	// Resident: Session.PowerMethod — the whole iteration loop as one
	// resident operation (convergence control via scalar all-reduce).
	ResidentIters       int     `json:"resident_iters"`
	ResidentNsPerIter   float64 `json:"resident_ns_per_iter"`
	ResidentItersPerSec float64 `json:"resident_iters_per_sec"`
}

type batchBench struct {
	Cols        int     `json:"cols"`
	NsPerApply  float64 `json:"ns_per_apply"`
	NsPerCol    float64 `json:"ns_per_col"`
	MsgsPerCol  float64 `json:"msgs_per_col"`  // gather messages ÷ cols (rank 0)
	WordsPerCol int64   `json:"words_per_col"` // gather words ÷ cols (rank 0)
	SpeedupVs1  float64 `json:"speedup_vs_cols1,omitempty"`
}

type parallelReport struct {
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	NumCPU      int              `json:"num_cpu"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Timestamp   string           `json:"timestamp"`
	Config      parallelConfig   `json:"config"`
	PowerMethod powerMethodBench `json:"power_method"`
	Batch       []batchBench     `json:"batch"`
	// Recovery is filled by the -recover mode (runRecoveryDrill): the
	// incremental-checkpoint overhead profile and the crash-drill restore
	// latency. The -parallel mode leaves it untouched in an existing
	// baseline only if -recover is re-run afterwards — regenerate with
	// `-parallel` first, then `-recover`.
	Recovery *recoveryBench `json:"recovery,omitempty"`
}

// recoverySize is one problem size's checkpoint-overhead profile: the
// steady-state fault-free Apply cost with the supervisor off and on, and
// the dirty-word accounting that pins the incremental checkpointer's
// O(dirty) contract at this size.
type recoverySize struct {
	Q int `json:"q"`
	P int `json:"p"`
	B int `json:"b"`
	N int `json:"n"`
	// BaseNsPerApply / RecNsPerApply: min-of-reps steady-state Apply cost
	// without and with the recovery supervisor (fault-free transport, so
	// the difference is pure checkpoint overhead).
	BaseNsPerApply float64 `json:"base_ns_per_apply"`
	RecNsPerApply  float64 `json:"rec_ns_per_apply"`
	// OverheadRatio = recovery-on ÷ recovery-off; a same-host ratio, so
	// the CI gate transfers across runner hardware.
	OverheadRatio float64 `json:"overhead_ratio"`
	// ApplyCheckpointWords: arena words copied per Apply checkpoint —
	// zero, the dirtyNone contract (x/y arenas rebuild from host staging).
	ApplyCheckpointWords int64 `json:"apply_checkpoint_words"`
	// PowerCheckpointWords: arena words copied per power-method
	// checkpoint — the owned spans, exactly n, independent of the
	// replicated arena footprint the old full-copy checkpointer moved.
	PowerCheckpointWords int64 `json:"power_checkpoint_words"`
	// CheckpointNsPerApply: wall time the checkpoint path spent per Apply
	// during the recovery-on loop.
	CheckpointNsPerApply float64 `json:"checkpoint_ns_per_apply"`
}

// recoveryBench is the -recover mode's JSON section in
// BENCH_parallel.json.
type recoveryBench struct {
	Sizes []recoverySize `json:"sizes"`
	// Drill outcome under the seeded multi-rank crash plan.
	RestoreNsPerRollback float64 `json:"restore_ns_per_rollback"`
	RankDowns            int     `json:"rank_downs"`
	Rollbacks            int     `json:"rollbacks"`
	Relaunches           int     `json:"relaunches"`
}

// normalizeInto writes x/‖y‖ for the next iteration; the per-call and
// session loops share it so their host-side work is identical.
func normalizeInto(x, y []float64) {
	var nrm float64
	for _, v := range y {
		nrm += v * v
	}
	nrm = math.Sqrt(nrm)
	if nrm == 0 {
		nrm = 1
	}
	for i, v := range y {
		x[i] = v / nrm
	}
}

func runParallelBench(out, check string) {
	const (
		q     = 4
		b     = 6
		iters = 100
	)
	part, err := partition.NewSpherical(q)
	if err != nil {
		fatal(err)
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(2026))
	a := tensor.Random(n, rng)
	opts := withBackend(parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
	// Pre-pack the block sets so the per-call loop is measured at its best:
	// the speedup quoted below is engine overhead, not tensor re-extraction.
	blocks, err := parallel.PackRankBlocks(a, part, b)
	if err != nil {
		fatal(err)
	}
	opts.Blocks = blocks

	rep := parallelReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Config:     parallelConfig{Q: q, P: part.P, M: part.M, B: b, N: n, Iters: iters},
	}
	fmt.Printf("sttsvbench -parallel: q=%d (P=%d, m=%d), b=%d, n=%d, %d power iterations\n",
		q, part.P, part.M, b, n, iters)

	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = math.Sin(float64(i+1) * 1.7)
	}
	normalizeInto(x0, x0)

	// Each loop runs reps times and the fastest repetition is kept: the
	// simulated machine's wall time is scheduler-noisy, and min-of-reps is
	// the standard way to expose the deterministic cost underneath.
	const reps = 3
	x := make([]float64, n)
	minOf := func(loop func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			copy(x, x0)
			start := time.Now()
			loop()
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}

	// --- per-call Run: machine relaunch every application ---
	copy(x, x0)
	if _, err := parallel.Run(a, x, opts); err != nil { // warm-up
		fatal(err)
	}
	perCall := minOf(func() {
		for it := 0; it < iters; it++ {
			res, err := parallel.Run(a, x, opts)
			if err != nil {
				fatal(err)
			}
			normalizeInto(x, res.Y)
		}
	})

	// --- same loop over one resident session ---
	s, err := parallel.OpenSession(a, opts)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	copy(x, x0)
	if _, err := s.Apply(x); err != nil { // warm-up
		fatal(err)
	}
	session := minOf(func() {
		for it := 0; it < iters; it++ {
			res, err := s.Apply(x)
			if err != nil {
				fatal(err)
			}
			normalizeInto(x, res.Y)
		}
	})

	// --- Session.PowerMethod: the loop resident on the machine ---
	var er *parallel.EigenResult
	resident := minOf(func() {
		if er, err = s.PowerMethod(parallel.PowerOptions{MaxIter: iters, Tol: 1e-300}); err != nil {
			fatal(err)
		}
	})

	pm := &rep.PowerMethod
	pm.PerCallNsPerIter = float64(perCall.Nanoseconds()) / iters
	pm.PerCallItersPerSec = iters / perCall.Seconds()
	pm.SessionNsPerIter = float64(session.Nanoseconds()) / iters
	pm.SessionItersPerSec = iters / session.Seconds()
	pm.SessionSpeedup = pm.SessionItersPerSec / pm.PerCallItersPerSec
	pm.ResidentIters = er.Iterations
	pm.ResidentNsPerIter = float64(resident.Nanoseconds()) / float64(er.Iterations)
	pm.ResidentItersPerSec = float64(er.Iterations) / resident.Seconds()
	fmt.Printf("  per-call Run   %10.0f ns/iter  %8.1f iters/s\n", pm.PerCallNsPerIter, pm.PerCallItersPerSec)
	fmt.Printf("  session Apply  %10.0f ns/iter  %8.1f iters/s  %.2fx vs per-call\n",
		pm.SessionNsPerIter, pm.SessionItersPerSec, pm.SessionSpeedup)
	fmt.Printf("  resident loop  %10.0f ns/iter  %8.1f iters/s  (%d iters)\n",
		pm.ResidentNsPerIter, pm.ResidentItersPerSec, pm.ResidentIters)

	// --- batch amortization: one schedule, r columns per message ---
	const batchApplies = 30
	var ns1 float64
	for _, cols := range []int{1, 2, 4, 8} {
		X := make([][]float64, cols)
		for l := range X {
			X[l] = append([]float64(nil), x0...)
		}
		if _, err := s.ApplyBatch(X); err != nil { // warm-up (grows arenas)
			fatal(err)
		}
		start := time.Now()
		var gatherMsgs, gatherWords int64
		for i := 0; i < batchApplies; i++ {
			br, err := s.ApplyBatch(X)
			if err != nil {
				fatal(err)
			}
			gatherMsgs, gatherWords = br.Phases[0].SentMsgs[0], br.Phases[0].SentWords[0]
		}
		el := time.Since(start)
		r := batchBench{
			Cols:        cols,
			NsPerApply:  float64(el.Nanoseconds()) / batchApplies,
			NsPerCol:    float64(el.Nanoseconds()) / (batchApplies * float64(cols)),
			MsgsPerCol:  float64(gatherMsgs) / float64(cols),
			WordsPerCol: gatherWords / int64(cols),
		}
		if cols == 1 {
			ns1 = r.NsPerCol
		} else if r.NsPerCol > 0 {
			r.SpeedupVs1 = ns1 / r.NsPerCol
		}
		rep.Batch = append(rep.Batch, r)
		fmt.Printf("  batch cols=%d   %10.0f ns/col   gather %5.1f msgs/col %5d words/col",
			cols, r.NsPerCol, r.MsgsPerCol, r.WordsPerCol)
		if r.SpeedupVs1 != 0 {
			fmt.Printf("  %.2fx vs cols=1", r.SpeedupVs1)
		}
		fmt.Println()
	}

	if check != "" {
		checkParallelRegression(check, &rep)
		return
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// checkParallelRegression compares the measured session speedup against a
// committed baseline: both numbers are machine-relative ratios (session
// vs per-call on the same host), so they transfer across hardware. A drop
// below 0.8× the baseline ratio fails the run.
func checkParallelRegression(path string, rep *parallelReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("check baseline: %w", err))
	}
	var base parallelReport
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("check baseline %s: %w", path, err))
	}
	const slack = 0.8
	want := slack * base.PowerMethod.SessionSpeedup
	got := rep.PowerMethod.SessionSpeedup
	fmt.Printf("check: session speedup %.2fx, baseline %.2fx, floor %.2fx\n",
		got, base.PowerMethod.SessionSpeedup, want)
	if got < want {
		fatal(fmt.Errorf("session speedup regressed more than 20%%: %.2fx < %.2fx (baseline %.2fx in %s)",
			got, want, base.PowerMethod.SessionSpeedup, path))
	}
	fmt.Println("check: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sttsvbench:", err)
	os.Exit(1)
}

// measureRecoverySize profiles the incremental checkpointer at one
// problem size: steady-state fault-free Apply cost with the supervisor
// off vs on (the difference is pure checkpoint overhead), plus the
// dirty-word accounting for both operation classes.
func measureRecoverySize(q, b int) recoverySize {
	part, err := partition.NewSpherical(q)
	if err != nil {
		fatal(err)
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(int64(3000 + q)))
	a := tensor.Random(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const (
		applies = 30
		reps    = 3
	)
	loop := func(s *parallel.Session) time.Duration {
		if _, err := s.Apply(x); err != nil { // warm-up
			fatal(err)
		}
		best := time.Duration(math.MaxInt64)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < applies; i++ {
				if _, err := s.Apply(x); err != nil {
					fatal(err)
				}
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}

	base := withBackend(parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
	sb, err := parallel.OpenSession(a, base)
	if err != nil {
		fatal(err)
	}
	baseT := loop(sb)
	sb.Close()

	rec := base
	rec.Recovery = &parallel.RecoveryOptions{}
	sr, err := parallel.OpenSession(a, rec)
	if err != nil {
		fatal(err)
	}
	recT := loop(sr)
	applyStats := sr.RecoveryStats()
	if applyStats.CheckpointWords != 0 {
		fatal(fmt.Errorf("recovery bench q=%d: Apply checkpoints copied %d arena words, want 0",
			q, applyStats.CheckpointWords))
	}
	// One resident power method pins the dirty-span cost: every iteration's
	// checkpoint copies the owned chunk spans, which tile the global vector
	// exactly.
	const pmIters = 6
	if _, err := sr.PowerMethod(parallel.PowerOptions{MaxIter: pmIters, Tol: 1e-300}); err != nil {
		fatal(err)
	}
	pmWords := sr.RecoveryStats().CheckpointWords
	sr.Close()
	if pmWords != pmIters*int64(n) {
		fatal(fmt.Errorf("recovery bench q=%d: power-method checkpoints copied %d words in %d iterations, want n=%d per iteration",
			q, pmWords, pmIters, n))
	}

	totalApplies := (1 + reps*applies) // warm-up + measured reps
	sz := recoverySize{
		Q: q, P: part.P, B: b, N: n,
		BaseNsPerApply:       float64(baseT.Nanoseconds()) / applies,
		RecNsPerApply:        float64(recT.Nanoseconds()) / applies,
		ApplyCheckpointWords: 0,
		PowerCheckpointWords: pmWords / pmIters,
		CheckpointNsPerApply: float64(applyStats.CheckpointNanos) / float64(totalApplies),
	}
	sz.OverheadRatio = sz.RecNsPerApply / sz.BaseNsPerApply
	return sz
}

// checkRecoveryRegression gates the recovery-on vs recovery-off
// steady-state overhead ratio against the committed baseline: a measured
// ratio above 1.25x the baseline's at the same (q, b) fails the run. Both
// sides are same-host ratios, so the gate transfers across hardware. A
// baseline without a recovery section passes gracefully (first run after
// the section was introduced).
func checkRecoveryRegression(path string, bench *recoveryBench) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("check baseline: %w", err))
	}
	var base parallelReport
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("check baseline %s: %w", path, err))
	}
	if base.Recovery == nil {
		fmt.Printf("check: baseline %s has no recovery section yet — skipping the overhead gate\n", path)
		return
	}
	const slack = 1.25
	for _, got := range bench.Sizes {
		var want *recoverySize
		for i := range base.Recovery.Sizes {
			if bs := &base.Recovery.Sizes[i]; bs.Q == got.Q && bs.B == got.B {
				want = bs
				break
			}
		}
		if want == nil {
			fmt.Printf("check: baseline has no q=%d b=%d recovery size — skipping it\n", got.Q, got.B)
			continue
		}
		ceiling := want.OverheadRatio * slack
		fmt.Printf("check: q=%d checkpoint overhead %.3fx, baseline %.3fx, ceiling %.3fx\n",
			got.Q, got.OverheadRatio, want.OverheadRatio, ceiling)
		if got.OverheadRatio > ceiling {
			fatal(fmt.Errorf("recovery-on steady-state overhead regressed at q=%d: %.3fx > %.3fx (baseline %.3fx in %s)",
				got.Q, got.OverheadRatio, ceiling, want.OverheadRatio, path))
		}
	}
	fmt.Println("check: ok")
}

// runRecoveryDrill (the -recover mode) measures what crash recovery
// costs. Two parts: (1) the checkpoint-overhead profile — steady-state
// fault-free Apply with the supervisor off vs on at two problem sizes,
// plus the dirty-word accounting that shows checkpoint cost scaling with
// the dirty footprint, not the replicated arenas; (2) the crash drill —
// the same Apply sequence over one resident session, once clean and once
// under a seeded multi-rank crash plan, verifying bit-identical results
// and reporting the rollback-replay cost. With out set the results merge
// into the parallel benchmark JSON; with check set they gate against the
// committed baseline instead.
func runRecoveryDrill(out, check string) {
	const (
		q       = 3
		b       = 4
		applies = 20
	)
	part, err := partition.NewSpherical(q)
	if err != nil {
		fatal(err)
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(2026))
	a := tensor.Random(n, rng)
	xs := make([][]float64, applies)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
	}
	fmt.Printf("sttsvbench -recover: q=%d (P=%d, m=%d), b=%d, n=%d, %d applies\n",
		q, part.P, part.M, b, n, applies)

	run := func(opts parallel.Options) ([][]float64, *machine.Report, parallel.RecoveryStats, time.Duration) {
		s, err := parallel.OpenSession(a, opts)
		if err != nil {
			fatal(err)
		}
		ys := make([][]float64, applies)
		start := time.Now()
		for k, x := range xs {
			res, err := s.Apply(x)
			if err != nil {
				fatal(err)
			}
			ys[k] = res.Y
		}
		el := time.Since(start)
		stats := s.RecoveryStats()
		if err := s.Close(); err != nil {
			fatal(err)
		}
		return ys, s.Report(), stats, el
	}

	base := withBackend(parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
	cleanY, cleanRep, _, cleanT := run(base)

	// Crash three ranks at three depths: mid first exchange, mid-run, and
	// deep enough to land several applies in (the supervisor sees them as
	// separate incidents, each one abort-relaunch-rollback-replay cycle).
	plan := fault.Plan{Seed: 7, Crash: map[int]int{1: 10, 4: 90, 7: 400}}
	faulted := base
	faulted.Machine = machine.RunConfig{
		Transport: fault.Transport(plan, fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout:   5 * time.Second,
	}
	backend.Apply(&faulted.Machine)
	faulted.Recovery = &parallel.RecoveryOptions{}
	recY, recRep, stats, recT := run(faulted)

	for k := range cleanY {
		for i := range cleanY[k] {
			if recY[k][i] != cleanY[k][i] {
				fatal(fmt.Errorf("recovery drill: apply %d diverged from the clean run at element %d", k, i))
			}
		}
	}
	var cleanWire, recWire int64
	for r := 0; r < part.P; r++ {
		cleanWire += cleanRep.WireSentWords[r]
		recWire += recRep.WireSentWords[r]
	}
	fmt.Printf("  clean session      %10v  (%d wire words)\n", cleanT, cleanWire)
	fmt.Printf("  crashed+recovered  %10v  (%d wire words, +%d recovery traffic)\n",
		recT, recWire, recWire-cleanWire)
	fmt.Printf("  recovery: %d rank deaths, %d retries, %d rollbacks, %d relaunches (epoch %d)\n",
		stats.RankDowns, stats.Retries, stats.Rollbacks, stats.Relaunches, stats.Epoch)
	fmt.Printf("  verification: %d fingerprint passes, %d mismatches\n", stats.Verifications, stats.Mismatches)
	fmt.Printf("  results bit-identical across all %d applies; logical meters preserved=%v\n",
		applies, cleanRep.TotalSentWords() == recRep.TotalSentWords() &&
			cleanRep.MaxSentMsgs() == recRep.MaxSentMsgs())

	bench := &recoveryBench{
		RankDowns:  stats.RankDowns,
		Rollbacks:  stats.Rollbacks,
		Relaunches: stats.Relaunches,
	}
	if stats.Rollbacks > 0 {
		bench.RestoreNsPerRollback = float64(stats.RestoreNanos) / float64(stats.Rollbacks)
		fmt.Printf("  restore latency: %.0f ns/rollback (verified)\n", bench.RestoreNsPerRollback)
	}
	for _, size := range []struct{ q, b int }{{3, 4}, {4, 6}} {
		sz := measureRecoverySize(size.q, size.b)
		bench.Sizes = append(bench.Sizes, sz)
		fmt.Printf("  overhead q=%d (P=%d, n=%d): base %8.0f ns/apply, recovery-on %8.0f ns/apply (%.3fx);"+
			" ckpt %d words/apply, %d words/power-iter, %.0f ns/apply in checkpoint\n",
			sz.Q, sz.P, sz.N, sz.BaseNsPerApply, sz.RecNsPerApply, sz.OverheadRatio,
			sz.ApplyCheckpointWords, sz.PowerCheckpointWords, sz.CheckpointNsPerApply)
	}

	if check != "" {
		checkRecoveryRegression(check, bench)
		return
	}
	// Merge into the parallel benchmark baseline: keep the -parallel
	// sections of an existing file and replace only the recovery section.
	rep := parallelReport{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			fatal(fmt.Errorf("existing %s: %w", out, err))
		}
	}
	rep.Recovery = bench
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
