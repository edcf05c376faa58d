// Sparse and low-rank fast-path benchmark (-sparse): quantifies the three
// claims the fast paths make — (1) packed sparse apply beats the dense
// kernels once the tensor is sparse enough (the crossover curve), (2) the
// factored CP apply is orders of magnitude cheaper than any dense
// evaluation at the same dimension (quoted against a predicted dense time
// from the measured dense ns/ternary, since materializing the dense
// tensor at n=4096 would be absurd), and (3) nnz-weighted diagonal
// assignment flattens the per-rank load skew of a power-law hypergraph.
// It finishes with two in-process acceptance runs at n ≥ 10⁶ — a
// hypergraph power iteration through a sparse session and a CP power
// iteration — sizes at which a dense session could not allocate a single
// rank's blocks. Writes BENCH_sparse.json, with the process's peak
// resident set; with -check the gates are enforced and the process fails
// on a violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/sttsv"
)

type crossoverPoint struct {
	N          int     `json:"n"`
	BlockEdge  int     `json:"block_edge"`
	NNZ        int     `json:"nnz"`
	DensityPct float64 `json:"density_pct"` // nnz / dense packed entries × 100
	DenseNs    float64 `json:"dense_ns_per_apply"`
	SparseNs   float64 `json:"sparse_ns_per_apply"`
	Speedup    float64 `json:"speedup_vs_dense"`
	Gate       string  `json:"gate,omitempty"`
}

type cpScalingPoint struct {
	N                int     `json:"n"`
	R                int     `json:"r"`
	CPNs             float64 `json:"cp_ns_per_apply"`
	DenseNsPerTern   float64 `json:"dense_ns_per_ternary"`
	DenseTernary     int64   `json:"dense_ternary_ops"`
	PredictedDenseNs float64 `json:"predicted_dense_ns_per_apply"`
	PredictedSpeedup float64 `json:"predicted_speedup_vs_dense"`
	Gate             string  `json:"gate,omitempty"`
}

type imbalanceResult struct {
	Q         int     `json:"q"`
	BlockEdge int     `json:"block_edge"`
	N         int     `json:"n"`
	Edges     int     `json:"edges"`
	Skew      float64 `json:"skew"`
	Before    float64 `json:"imbalance_uniform"`
	After     float64 `json:"imbalance_weighted"`
	Gate      string  `json:"gate,omitempty"`
}

type acceptanceRun struct {
	Kind    string  `json:"kind"` // "hypergraph" or "cp"
	N       int     `json:"n"`
	NNZ     int     `json:"nnz,omitempty"`
	R       int     `json:"r,omitempty"`
	P       int     `json:"p"`
	Lambda  float64 `json:"lambda"`
	IterNs  float64 `json:"power_iter_ns"`
	SetupNs float64 `json:"setup_ns"`
	// The hypergraph run's set-up by stage: generating the tensor,
	// packing every rank's blocks, opening the session.
	GenerateNs float64 `json:"generate_ns,omitempty"`
	PackNs     float64 `json:"pack_ns,omitempty"`
	OpenNs     float64 `json:"open_ns,omitempty"`
	RankMaxW   int     `json:"rank_max_words,omitempty"` // largest per-rank packed storage
}

type sparseReport struct {
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	Timestamp  string           `json:"timestamp"`
	Crossover  []crossoverPoint `json:"crossover"`
	CP         cpScalingPoint   `json:"cp_scaling"`
	Imbalance  imbalanceResult  `json:"imbalance"`
	Acceptance []acceptanceRun  `json:"acceptance"`
	// PeakRSSKB is the whole process's peak resident set (VmHWM) after
	// the acceptance runs; 0 where /proc/self/status cannot be read.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// randSparse keeps each packed coordinate (i ≥ j ≥ k) with probability
// density — exact control of nnz/dense-entries for the crossover sweep.
func randSparse(n int, density float64, seed int64) *sparse.Tensor {
	rng := rand.New(rand.NewSource(seed))
	var entries []sparse.Entry
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= j; k++ {
				if rng.Float64() < density {
					entries = append(entries, sparse.Entry{I: int32(i), J: int32(j), K: int32(k), V: rng.NormFloat64()})
				}
			}
		}
	}
	sp, err := sparse.New(n, entries)
	if err != nil {
		fatal(err)
	}
	return sp
}

func runSparseBench(out, check string, benchtime time.Duration) {
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}
	rep := sparseReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	// --- dense-vs-sparse crossover ---
	// One dimension, one dense baseline, a density sweep on the sparse
	// side: the dense apply touches every packed entry regardless of
	// zeros, the packed sparse apply touches nnz stored values.
	const (
		xoN = 256
		xoM = 8
		xoB = xoN / xoM
	)
	denseEntries := xoN * (xoN + 1) * (xoN + 2) / 6
	rng := rand.New(rand.NewSource(31))
	x := make([]float64, xoN)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Dense baseline: the production operator, single-threaded like the
	// sparse path here — kernel vs kernel.
	denseRef := randSparse(xoN, 0.10, 32).Dense()
	denseOp := sttsv.NewOperator(denseRef, xoM)
	denseNs := nsPerOp(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			denseOp.Apply(x, nil)
		}
	}))
	denseTernPerNs := denseNs / float64(sttsv.PackedTernaryCount(xoN))

	fmt.Printf("sttsvbench -sparse: crossover at n=%d (dense %d entries, %.0f ns/apply)\n",
		xoN, denseEntries, denseNs)
	for _, density := range []float64{0.10, 0.03, 0.01, 0.003, 0.001} {
		sp := randSparse(xoN, density, 33)
		pk, err := sparse.Pack(sp, xoB)
		if err != nil {
			fatal(err)
		}
		sparseNs := nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pk.ApplyPacked(x, nil)
			}
		}))
		pt := crossoverPoint{
			N: xoN, BlockEdge: xoB, NNZ: sp.NNZ(),
			DensityPct: 100 * float64(sp.NNZ()) / float64(denseEntries),
			DenseNs:    denseNs,
			SparseNs:   sparseNs,
			Speedup:    denseNs / sparseNs,
		}
		// The first point at or below 1% density carries the gate.
		if pt.DensityPct <= 1.0 {
			tagged := false
			for _, prev := range rep.Crossover {
				if prev.Gate == "crossover" {
					tagged = true
				}
			}
			if !tagged {
				pt.Gate = "crossover"
			}
		}
		rep.Crossover = append(rep.Crossover, pt)
		fmt.Printf("  density %6.3f%%  nnz %8d  sparse %10.0f ns/apply  %6.2fx vs dense%s\n",
			pt.DensityPct, pt.NNZ, pt.SparseNs, pt.Speedup, gateTag(pt.Gate))
	}

	// --- CP low-rank scaling ---
	// n=4096 is far past any dense evaluation; the dense time is predicted
	// from the measured dense ns/ternary at n=256 times the n=4096 ternary
	// count — a *favourable* estimate for dense (larger problems run
	// slower per ternary, not faster).
	{
		const cpN, cpR = 4096, 16
		op := randCPBench(cpN, cpR, 34)
		xc := make([]float64, cpN)
		for i := range xc {
			xc[i] = rng.NormFloat64()
		}
		cpNs := nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.Apply(xc, nil)
			}
		}))
		denseTern := sttsv.PackedTernaryCount(cpN)
		rep.CP = cpScalingPoint{
			N: cpN, R: cpR,
			CPNs:             cpNs,
			DenseNsPerTern:   denseTernPerNs,
			DenseTernary:     denseTern,
			PredictedDenseNs: denseTernPerNs * float64(denseTern),
			Gate:             "cp",
		}
		rep.CP.PredictedSpeedup = rep.CP.PredictedDenseNs / cpNs
		fmt.Printf("  cp n=%d r=%d: %0.f ns/apply, predicted dense %.3g ns → %.0fx [gate cp]\n",
			cpN, cpR, cpNs, rep.CP.PredictedDenseNs, rep.CP.PredictedSpeedup)
	}

	// --- nnz imbalance before/after weighting ---
	{
		const q, b, skew = 2, 16, 1.3
		uni, err := partition.NewSpherical(q)
		if err != nil {
			fatal(err)
		}
		n := uni.M * b
		edges := 32 * n
		sp, err := sparse.SkewedHypergraph(n, edges, skew, 35)
		if err != nil {
			fatal(err)
		}
		counts := sparse.BlockCounts(sp, b)
		weight := func(c partition.Coord) int64 { return counts[[3]int{c.I, c.J, c.K}] }
		wp, err := partition.NewSphericalWeighted(q, weight)
		if err != nil {
			fatal(err)
		}
		imb := func(p *partition.Tetrahedral) float64 {
			srb, err := parallel.PackSparseRankBlocks(sp, p, b)
			if err != nil {
				fatal(err)
			}
			return obs.ComputeLoadStats(srb.Loads()).Imbalance
		}
		rep.Imbalance = imbalanceResult{
			Q: q, BlockEdge: b, N: n, Edges: edges, Skew: skew,
			Before: imb(uni), After: imb(wp), Gate: "imbalance",
		}
		fmt.Printf("  imbalance skew=%.1f: uniform %.3f → weighted %.3f [gate imbalance]\n",
			skew, rep.Imbalance.Before, rep.Imbalance.After)
	}

	// --- acceptance: n ≥ 10⁶ through the session engine ---
	{
		const (
			accN     = 1_000_000
			accEdges = 10 * accN // nnz ~ 10·n
			q        = 2
		)
		part, err := partition.NewSpherical(q)
		if err != nil {
			fatal(err)
		}
		b := (accN + part.M - 1) / part.M
		stage := time.Now()
		lap := func() float64 {
			now := time.Now()
			ns := float64(now.Sub(stage).Nanoseconds())
			stage = now
			return ns
		}
		sp, err := sparse.RandomHypergraph(accN, accEdges, 36)
		if err != nil {
			fatal(err)
		}
		genNs := lap()
		srb, err := parallel.PackSparseRankBlocks(sp, part, b)
		if err != nil {
			fatal(err)
		}
		packNs := lap()
		// The packed blocks are all the run needs: nothing reads the COO
		// tensor (≈240 MB) after this, so the session's arenas and the
		// power iteration can reuse its memory.
		nnz := sp.NNZ()
		sp = nil
		s, err := parallel.OpenSession(nil, parallel.Options{
			Part: part, B: b, Wiring: parallel.WiringP2P, Sparse: srb,
		})
		if err != nil {
			fatal(err)
		}
		openNs := lap()
		setupNs := genNs + packNs + openNs
		maxW := 0
		for p := 0; p < part.P; p++ {
			w := 0
			for _, blk := range srb.Rank(p) {
				w += blk.Words()
			}
			if w > maxW {
				maxW = w
			}
		}
		start := time.Now()
		eig, err := s.PowerMethod(parallel.PowerOptions{MaxIter: 1, Seed: 1})
		if err != nil {
			fatal(err)
		}
		iterNs := float64(time.Since(start).Nanoseconds())
		s.Close()
		rep.Acceptance = append(rep.Acceptance, acceptanceRun{
			Kind: "hypergraph", N: accN, NNZ: nnz, P: part.P,
			Lambda: eig.Lambda, IterNs: iterNs, SetupNs: setupNs,
			GenerateNs: genNs, PackNs: packNs, OpenNs: openNs, RankMaxW: maxW,
		})
		fmt.Printf("  acceptance hypergraph n=%d nnz=%d P=%d: power iter %.2fs (setup %.2fs: generate %.2fs, pack %.2fs, open %.2fs), λ=%.3g\n",
			accN, nnz, part.P, iterNs/1e9, setupNs/1e9, genNs/1e9, packNs/1e9, openNs/1e9, eig.Lambda)
	}
	{
		const accN, accR, accP = 1_000_000, 16, 8
		// The two runs are independent. The hypergraph run leaves a GC
		// goal of ≈890 MiB (twice the ≈445 MiB its session held live),
		// which this run would grow into before its first collection;
		// collecting here bounds the process's peak.
		runtime.GC()
		setup := time.Now()
		op := randCPBench(accN, accR, 37)
		s, err := parallel.OpenCPSession(op, parallel.CPOptions{P: accP})
		if err != nil {
			fatal(err)
		}
		setupNs := float64(time.Since(setup).Nanoseconds())
		start := time.Now()
		eig, err := s.PowerMethod(parallel.PowerOptions{MaxIter: 1, Seed: 1})
		if err != nil {
			fatal(err)
		}
		iterNs := float64(time.Since(start).Nanoseconds())
		s.Close()
		rep.Acceptance = append(rep.Acceptance, acceptanceRun{
			Kind: "cp", N: accN, R: accR, P: accP,
			Lambda: eig.Lambda, IterNs: iterNs, SetupNs: setupNs,
		})
		fmt.Printf("  acceptance cp n=%d r=%d P=%d: power iter %.2fs (setup %.2fs), λ=%.3g\n",
			accN, accR, accP, iterNs/1e9, setupNs/1e9, eig.Lambda)
	}

	rep.PeakRSSKB = peakRSSKB()
	fmt.Printf("  peak RSS %d kB\n", rep.PeakRSSKB)

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)

	if check != "" {
		checkSparseGates(&rep)
	}
}

// checkSparseGates enforces the fast-path acceptance gates on a fresh
// report. The gates are absolute (no baseline file): the claims are
// asymptotic, not machine-tuned.
func checkSparseGates(rep *sparseReport) {
	const (
		minSparseSpeedup = 5.0  // sparse ≥ 5× dense at ≤ 1% density
		minCPSpeedup     = 50.0 // CP ≥ 50× predicted dense at n=4096
		maxImbalance     = 1.3  // weighted nnz makespan / mean
		maxPeakRSSKB     = 690_000
	)
	failed := false
	for _, pt := range rep.Crossover {
		if pt.Gate != "crossover" {
			continue
		}
		fmt.Printf("check crossover: %.2fx vs dense at %.3f%% density, floor %.1fx\n",
			pt.Speedup, pt.DensityPct, minSparseSpeedup)
		if pt.Speedup < minSparseSpeedup {
			fmt.Fprintf(os.Stderr, "sttsvbench: gate crossover: sparse %.2fx below %.1fx at %.3f%% density\n",
				pt.Speedup, minSparseSpeedup, pt.DensityPct)
			failed = true
		}
	}
	fmt.Printf("check cp: %.0fx vs predicted dense, floor %.0fx\n", rep.CP.PredictedSpeedup, minCPSpeedup)
	if rep.CP.PredictedSpeedup < minCPSpeedup {
		fmt.Fprintf(os.Stderr, "sttsvbench: gate cp: %.0fx below %.0fx\n", rep.CP.PredictedSpeedup, minCPSpeedup)
		failed = true
	}
	fmt.Printf("check imbalance: weighted %.3f (uniform %.3f), ceiling %.1f\n",
		rep.Imbalance.After, rep.Imbalance.Before, maxImbalance)
	if rep.Imbalance.After > maxImbalance {
		fmt.Fprintf(os.Stderr, "sttsvbench: gate imbalance: weighted %.3f exceeds %.1f\n",
			rep.Imbalance.After, maxImbalance)
		failed = true
	}
	if rep.Imbalance.After > rep.Imbalance.Before {
		fmt.Fprintf(os.Stderr, "sttsvbench: gate imbalance: weighting worsened load (%.3f → %.3f)\n",
			rep.Imbalance.Before, rep.Imbalance.After)
		failed = true
	}
	if len(rep.Acceptance) != 2 {
		fmt.Fprintf(os.Stderr, "sttsvbench: gate acceptance: %d of 2 n≥10⁶ runs completed\n", len(rep.Acceptance))
		failed = true
	}
	fmt.Printf("check peak RSS: %d kB, ceiling %d kB\n", rep.PeakRSSKB, maxPeakRSSKB)
	if rep.PeakRSSKB == 0 || rep.PeakRSSKB > maxPeakRSSKB {
		fmt.Fprintf(os.Stderr, "sttsvbench: gate peak RSS: %d kB (0: unreadable) outside (0, %d] kB\n", rep.PeakRSSKB, maxPeakRSSKB)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("check: ok")
}

// peakRSSKB reads the process's peak resident set size (VmHWM) in kB,
// or 0 where /proc/self/status is unavailable.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

func gateTag(g string) string {
	if g == "" {
		return ""
	}
	return " [gate " + g + "]"
}

// randCPBench builds a random rank-r CP operator for benchmarking.
func randCPBench(n, r int, seed int64) *sttsv.CPOperator {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, r)
	vectors := make([][]float64, r)
	for k := 0; k < r; k++ {
		weights[k] = rng.NormFloat64()
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vectors[k] = v
	}
	op, err := sttsv.NewCPOperator(weights, vectors)
	if err != nil {
		fatal(err)
	}
	return op
}
