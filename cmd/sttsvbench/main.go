// Command sttsvbench is the local-kernel regression harness: it measures
// the per-kind block kernels (seed scalar reference vs register-tiled) and
// the packed-operator local phase (scalar baseline vs tiled), then writes
// BENCH_kernels.json for the experiment log.
//
// Cost accounting follows the paper's §3 unit — one ternary multiplication
// a_ijk·x_j·x_k contributing to an output row. Each ternary multiplication
// is two multiplies plus one add on the critical path, so GFLOP/s is
// reported with the documented convention of 3 flops per ternary op.
//
// The -parallel flag switches to the session-engine benchmark instead: a
// fixed-length distributed power method measured once with a machine
// relaunch per application (per-call Run) and once over a resident
// parallel.Session, plus the multi-column batch amortization sweep. It
// writes BENCH_parallel.json; with -check it compares the measured
// session speedup against a committed baseline and fails on a >20%
// regression (see cmd/sttsvbench/parallel.go).
//
// Usage:
//
//	sttsvbench                      # full sweep, writes BENCH_kernels.json
//	sttsvbench -out bench.json      # alternate output path
//	sttsvbench -benchtime 2s        # longer per-measurement budget
//	sttsvbench -parallel            # session engine, writes BENCH_parallel.json
//	sttsvbench -parallel -check BENCH_parallel.json   # regression gate
//	sttsvbench -recover             # crash-recovery drill + checkpoint overhead,
//	                                # merges a recovery section into BENCH_parallel.json
//	sttsvbench -recover -check BENCH_parallel.json    # overhead regression gate
//	sttsvbench -sparse              # sparse/CP fast paths, writes BENCH_sparse.json
//	sttsvbench -sparse -check gate  # additionally enforce the absolute fast-path gates
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/backendflag"
	"repro/internal/parallel"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// flopsPerTernary is the reporting convention: a_ijk·x_j·x_k accumulated
// into y is 2 multiplies + 1 add.
const flopsPerTernary = 3

// backend is the shared -backend=sim|tcp|unix selection; the parallel and
// serving benchmarks run their machines over it, so socket-backend numbers
// come from the same harness as the simulator's.
var backend *backendflag.Options

// withBackend applies the -backend selection to one benchmark's machine
// configuration.
func withBackend(opts parallel.Options) parallel.Options {
	backend.Apply(&opts.Machine)
	return opts
}

type kernelResult struct {
	Kind        string  `json:"kind"`
	Variant     string  `json:"variant"` // "scalar" (seed baseline) or "tiled"
	BlockEdge   int     `json:"block_edge"`
	TernaryOps  int64   `json:"ternary_ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerTern   float64 `json:"ns_per_ternary"`
	GFLOPs      float64 `json:"gflop_per_s"`
	SpeedupVsSc float64 `json:"speedup_vs_scalar,omitempty"`
}

type localResult struct {
	M           int     `json:"m"`
	BlockEdge   int     `json:"block_edge"`
	N           int     `json:"n"`
	Variant     string  `json:"variant"` // "scalar" or "tiled"
	TernaryOps  int64   `json:"ternary_ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerTern   float64 `json:"ns_per_ternary"`
	GFLOPs      float64 `json:"gflop_per_s"`
	SpeedupVsSc float64 `json:"speedup_vs_scalar,omitempty"`
}

type report struct {
	GOOS            string         `json:"goos"`
	GOARCH          string         `json:"goarch"`
	NumCPU          int            `json:"num_cpu"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	FlopsPerTernary int            `json:"flops_per_ternary"`
	TiledPath       string         `json:"tiled_path"` // sttsv.TiledPath: "avx" or "go"
	Timestamp       string         `json:"timestamp"`
	Kernels         []kernelResult `json:"kernels"`
	LocalPhase      []localResult  `json:"local_phase"`
}

var kinds = []struct {
	name    string
	I, J, K int
}{
	{"off-diagonal", 3, 2, 1},
	{"diag-pair-high", 2, 2, 1},
	{"diag-pair-low", 2, 1, 1},
	{"central", 1, 1, 1},
}

type kernelFn func(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64, stats *sttsv.Stats)

func measureKernel(I, J, K, edge int, fn kernelFn) testing.BenchmarkResult {
	rng := rand.New(rand.NewSource(7))
	blk := tensor.NewBlock(I, J, K, edge)
	for i := range blk.Data {
		blk.Data[i] = rng.NormFloat64()
	}
	x := make([]float64, edge)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, edge)
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn(blk, x, x, x, y, y, y, nil)
		}
	})
}

// scalarLocalPhase applies the seed scalar kernel to every packed block —
// the baseline the tiled speedup is quoted against.
func scalarLocalPhase(op *sttsv.Operator, x []float64) {
	n, m, b := op.N(), op.M(), op.B()
	xp := make([]float64, m*b)
	copy(xp, x[:n])
	yp := make([]float64, m*b)
	for _, blk := range op.Packed().Blocks {
		I, J, K := blk.I, blk.J, blk.K
		sttsv.BlockContributeScalar(blk,
			xp[I*b:(I+1)*b], xp[J*b:(J+1)*b], xp[K*b:(K+1)*b],
			yp[I*b:(I+1)*b], yp[J*b:(J+1)*b], yp[K*b:(K+1)*b], nil)
	}
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_kernels.json, or BENCH_parallel.json with -parallel)")
	benchtime := flag.Duration("benchtime", 500*time.Millisecond, "per-measurement budget")
	parallelMode := flag.Bool("parallel", false, "benchmark the session engine instead of the local kernels")
	check := flag.String("check", "", "with -parallel or -recover: compare against this baseline JSON and fail on regression instead of writing output; with -sparse: any non-empty value enforces the absolute fast-path gates")
	recoverDrill := flag.Bool("recover", false, "run the crash-recovery drill: checkpoint overhead at two problem sizes plus a resident session under a seeded multi-rank crash plan")
	serveMode := flag.Bool("serve", false, "benchmark the serving tier: concurrent closed-loop clients against the session pool + dual-trigger batcher, quoted vs the sequential one-session baseline")
	sparseMode := flag.Bool("sparse", false, "benchmark the sparse and low-rank fast paths: dense-vs-sparse crossover, CP scaling, nnz imbalance before/after weighting, and two n≥10⁶ acceptance runs through the session engine")
	backend = backendflag.Register(flag.CommandLine)
	flag.Parse()
	if err := backend.Validate(false); err != nil {
		fmt.Fprintln(os.Stderr, "sttsvbench:", err)
		os.Exit(2)
	}
	if *sparseMode {
		if *out == "" {
			*out = "BENCH_sparse.json"
		}
		runSparseBench(*out, *check, *benchtime)
		return
	}
	if *serveMode {
		if *out == "" {
			*out = "BENCH_serving.json"
		}
		runServingBench(*out, *check, *benchtime)
		return
	}
	if *recoverDrill {
		if *out == "" {
			*out = "BENCH_parallel.json"
		}
		runRecoveryDrill(*out, *check)
		return
	}
	if *parallelMode {
		if *out == "" {
			*out = "BENCH_parallel.json"
		}
		runParallelBench(*out, *check)
		return
	}
	if *out == "" {
		*out = "BENCH_kernels.json"
	}
	// testing.Benchmark honours the package-level -test.benchtime flag;
	// register the testing flags and set it so the tool is self-contained.
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", benchtime.String()); err != nil {
		// The testing flags are registered by the testing package import;
		// failure here means the Go toolchain changed underneath us.
		fmt.Fprintln(os.Stderr, "sttsvbench:", err)
		os.Exit(1)
	}

	rep := report{
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		FlopsPerTernary: flopsPerTernary,
		TiledPath:       sttsv.TiledPath(),
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("sttsvbench: %s/%s, %d CPU, GOMAXPROCS=%d, benchtime=%s, tiled path %s\n",
		rep.GOOS, rep.GOARCH, rep.NumCPU, rep.GOMAXPROCS, benchtime, rep.TiledPath)

	// Per-kind kernels: scalar (seed) first so the tiled row can quote its
	// speedup against the matching baseline.
	for _, k := range kinds {
		for _, edge := range []int{8, 16, 32, 64} {
			ternary := sttsv.BlockTernaryCount(tensor.KindOfBlock(k.I, k.J, k.K), edge)
			scalarNs := nsPerOp(measureKernel(k.I, k.J, k.K, edge, sttsv.BlockContributeScalar))
			tiledNs := nsPerOp(measureKernel(k.I, k.J, k.K, edge, sttsv.BlockContribute))
			for _, v := range []struct {
				variant string
				ns      float64
			}{{"scalar", scalarNs}, {"tiled", tiledNs}} {
				r := kernelResult{
					Kind: k.name, Variant: v.variant, BlockEdge: edge,
					TernaryOps: ternary,
					NsPerOp:    v.ns,
					NsPerTern:  v.ns / float64(ternary),
					GFLOPs:     flopsPerTernary * float64(ternary) / v.ns,
				}
				if v.variant == "tiled" && tiledNs > 0 {
					r.SpeedupVsSc = scalarNs / tiledNs
				}
				rep.Kernels = append(rep.Kernels, r)
				fmt.Printf("  %-15s %-6s b=%-3d %10.0f ns/op  %6.3f ns/ternary  %6.2f GFLOP/s",
					k.name, v.variant, edge, r.NsPerOp, r.NsPerTern, r.GFLOPs)
				if r.SpeedupVsSc != 0 {
					fmt.Printf("  %.2fx vs scalar", r.SpeedupVsSc)
				}
				fmt.Println()
			}
		}
	}

	// Local phase: one rank's full STTSV application. Three shapes: the
	// paper's q=3 grid (m = 10 row blocks) at a small edge; a
	// cache-resident b=32 shape (m=4 ⇒ ~2.9 MB packed) where the kernel
	// speedup is visible; and the large streamed m=10, b=32 shape
	// (~44 MB packed), which is DRAM-bandwidth-bound — both variants
	// stream the packed tensor once, so the speedup compresses toward
	// the memory roofline there.
	for _, shape := range []struct{ m, edge int }{{10, 8}, {4, 32}, {10, 32}} {
		n := shape.m * shape.edge
		rng := rand.New(rand.NewSource(9))
		a := tensor.Random(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ternary := sttsv.PackedTernaryCount(n)

		op := sttsv.NewOperator(a, shape.m)
		scalarNs := nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scalarLocalPhase(op, x)
			}
		}))
		add := func(variant string, ns float64) {
			r := localResult{
				M: shape.m, BlockEdge: shape.edge, N: n,
				Variant:    variant,
				TernaryOps: ternary,
				NsPerOp:    ns,
				NsPerTern:  ns / float64(ternary),
				GFLOPs:     flopsPerTernary * float64(ternary) / ns,
			}
			if variant != "scalar" && ns > 0 {
				r.SpeedupVsSc = scalarNs / ns
			}
			rep.LocalPhase = append(rep.LocalPhase, r)
			fmt.Printf("  local m=%d b=%-3d %-10s %12.0f ns/op  %6.3f ns/ternary  %6.2f GFLOP/s",
				shape.m, shape.edge, variant, r.NsPerOp, r.NsPerTern, r.GFLOPs)
			if r.SpeedupVsSc != 0 {
				fmt.Printf("  %.2fx vs scalar", r.SpeedupVsSc)
			}
			fmt.Println()
		}
		add("scalar", scalarNs)
		add("tiled", nsPerOp(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.Apply(x, nil)
			}
		})))
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sttsvbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
