package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// poolSize is how many distinct request inputs a run cycles through; each
// has its reference output computed before set-up.
const poolSize = 16

// relTol bounds |out − want|∞ relative to |want|∞: the parallel engine sums
// in another order than the sequential reference, so outputs agree to
// rounding, not bit for bit.
const relTol = 1e-9

// workload is one benchmark scenario.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing requests.
	clients int
	// dispatches is the number of session operations one request runs
	// (power iterations per solve); a batched request rides one.
	dispatches int
	// prepare generates the seeded inputs and their references (untimed).
	prepare func(seed int64) (*prepared, error)
}

// prepared is a workload's generated problem, ready to be set up.
type prepared struct {
	desc  string
	ranks int
	// open builds the system under test; its wall time is set-up time.
	open func(cfg machine.RunConfig) (*system, error)
	// check reports whether out is the correct answer to request k.
	check func(k int, out []float64) bool
}

// system is a set-up workload: request k is one end-to-end operation.
type system struct {
	request func(k int) ([]float64, error)
	close   func() error
	// checkpointWords, when set, reports the recovery checkpointer's
	// cumulative copied words.
	checkpointWords func() int64
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func init() {
	// apply: small blocks on the q=3 partition (P=30), so one Apply is
	// dominated by the 2×26 scheduled exchange steps and their barriers.
	register(&workload{name: "apply", clients: 1, dispatches: 1, prepare: func(seed int64) (*prepared, error) {
		return denseApply(seed, 3, 4, nil)
	}})
	// tcp: the same session engine over real TCP sockets on loopback, so
	// netwire framing and syscalls sit on every message.
	register(&workload{name: "tcp", clients: 1, dispatches: 1, prepare: func(seed int64) (*prepared, error) {
		return denseApply(seed, 2, 16, func() (machine.Backend, error) { return netwire.NewLoopback("tcp") })
	}})
	// power: b=24 on the q=2 partition gives the most kernel work per
	// rank of the workloads, and the armed crash-recovery checkpointer
	// copies the owned chunks at every iteration.
	register(&workload{name: "power", clients: 1, dispatches: powerIters, prepare: powerSolve})
	// sparse: a random 3-uniform hypergraph through the sparse fast path;
	// set-up packs the nonzeros into per-rank fiber blocks.
	register(&workload{name: "sparse", clients: 1, dispatches: 1, prepare: sparseApply})
	// serve: concurrent clients through the serving pool's admission
	// queue and dual-trigger batcher.
	register(&workload{name: "serve", clients: serveClients, dispatches: 1, prepare: servePool})
}

// vectors draws poolSize request vectors of length n.
func vectors(rng *rand.Rand, n int) [][]float64 {
	xs := make([][]float64, poolSize)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
	}
	return xs
}

// closeTo reports whether out matches want to relTol.
func closeTo(out, want []float64) bool {
	if len(out) != len(want) {
		return false
	}
	var scale, diff float64
	for i, w := range want {
		scale = math.Max(scale, math.Abs(w))
		diff = math.Max(diff, math.Abs(out[i]-w))
	}
	return diff <= relTol*math.Max(scale, 1)
}

// checkAgainst builds a check over the per-input references.
func checkAgainst(want [][]float64) func(int, []float64) bool {
	return func(k int, out []float64) bool { return closeTo(out, want[k%len(want)]) }
}

// denseProblem draws a seeded dense symmetric tensor sized to the q
// partition with block edge b, plus request vectors and their sequential
// references.
func denseProblem(seed int64, q, b int) (*partition.Tetrahedral, *tensor.Symmetric, [][]float64, [][]float64, error) {
	part, err := partition.NewSpherical(q)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(seed))
	a := tensor.Random(n, rng)
	xs := vectors(rng, n)
	want := make([][]float64, len(xs))
	for k, x := range xs {
		want[k] = sttsv.Packed(a, x, nil)
	}
	return part, a, xs, want, nil
}

// openDense is the dense set-up path: partition, block extraction, and a
// resident session.
func openDense(a *tensor.Symmetric, q, b int, cfg machine.RunConfig, rec *parallel.RecoveryOptions) (*parallel.Session, error) {
	part, err := partition.NewSpherical(q)
	if err != nil {
		return nil, err
	}
	blocks, err := parallel.PackRankBlocks(a, part, b)
	if err != nil {
		return nil, err
	}
	return parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P, Blocks: blocks, Machine: cfg, Recovery: rec,
	})
}

func denseApply(seed int64, q, b int, backend func() (machine.Backend, error)) (*prepared, error) {
	part, a, xs, want, err := denseProblem(seed, q, b)
	if err != nil {
		return nil, err
	}
	net := "sim"
	if backend != nil {
		net = "tcp loopback"
	}
	return &prepared{
		desc:  fmt.Sprintf("dense Session.Apply, q=%d, b=%d, n=%d, %s", q, b, a.N, net),
		ranks: part.P,
		check: checkAgainst(want),
		open: func(cfg machine.RunConfig) (*system, error) {
			cfg.BackendFactory = backend
			s, err := openDense(a, q, b, cfg, nil)
			if err != nil {
				return nil, err
			}
			return &system{
				request: func(k int) ([]float64, error) {
					r, err := s.Apply(xs[k%len(xs)])
					if err != nil {
						return nil, err
					}
					return r.Y, nil
				},
				close: s.Close,
			}, nil
		},
	}, nil
}

const (
	powerQ     = 2
	powerB     = 24
	powerIters = 8
)

// powerSolve runs fixed-length power-method solves: request k starts from
// the session's deterministic vector for seed k mod poolSize and returns
// the final iterate with λ appended.
func powerSolve(seed int64) (*prepared, error) {
	part, a, _, _, err := denseProblem(seed, powerQ, powerB)
	if err != nil {
		return nil, err
	}
	want := make([][]float64, poolSize)
	for k := range want {
		want[k] = powerReference(a, int64(k), powerIters)
	}
	return &prepared{
		desc: fmt.Sprintf("dense Session.PowerMethod, %d iterations, q=%d, b=%d, n=%d, recovery armed",
			powerIters, powerQ, powerB, a.N),
		ranks: part.P,
		check: checkAgainst(want),
		open: func(cfg machine.RunConfig) (*system, error) {
			s, err := openDense(a, powerQ, powerB, cfg, &parallel.RecoveryOptions{})
			if err != nil {
				return nil, err
			}
			return &system{
				request: func(k int) ([]float64, error) {
					// Tol is below any attainable |Δλ|, so every solve runs
					// exactly powerIters iterations.
					er, err := s.PowerMethod(parallel.PowerOptions{MaxIter: powerIters, Tol: 1e-300, Seed: int64(k % poolSize)})
					if err != nil {
						return nil, err
					}
					return append(er.X, er.Lambda), nil
				},
				close:           s.Close,
				checkpointWords: func() int64 { return s.RecoveryStats().CheckpointWords },
			}, nil
		},
	}, nil
}

// powerReference is the sequential power method with the session's start
// vector and stopping rule; it returns the final iterate with λ appended.
func powerReference(a *tensor.Symmetric, seed int64, iters int) []float64 {
	n := a.N
	x := make([]float64, n)
	var norm float64
	for i := range x {
		x[i] = math.Sin(float64(i+1)*1.7 + float64(seed))
		norm += x[i] * x[i]
	}
	norm = math.Sqrt(norm)
	for i := range x {
		x[i] /= norm
	}
	lambda, prev := 0.0, math.Inf(1)
	for it := 0; it < iters; it++ {
		y := sttsv.Packed(a, x, nil)
		var ynorm2 float64
		lambda = 0
		for i := range y {
			lambda += x[i] * y[i]
			ynorm2 += y[i] * y[i]
		}
		if math.Abs(lambda-prev) <= 1e-300*(1+math.Abs(lambda)) {
			break
		}
		prev = lambda
		ynorm := math.Sqrt(ynorm2)
		for i := range x {
			x[i] = y[i] / ynorm
		}
	}
	return append(x, lambda)
}

const (
	sparseQ     = 3
	sparseB     = 1500
	sparseEdges = 24 // hyperedges per vertex
)

func sparseApply(seed int64) (*prepared, error) {
	part, err := partition.NewSpherical(sparseQ)
	if err != nil {
		return nil, err
	}
	n := part.M * sparseB
	// Uniform vertex draws spread the nonzeros evenly over the blocks, so
	// every seed loads the ranks alike; RandomHypergraph's translate
	// families put them in a few seed-chosen diagonal bands instead.
	sp, err := sparse.SkewedHypergraph(n, sparseEdges*n, 1, seed)
	if err != nil {
		return nil, err
	}
	xs := vectors(rand.New(rand.NewSource(seed)), n)
	want := make([][]float64, len(xs))
	for k, x := range xs {
		want[k] = sp.Apply(x, nil)
	}
	return &prepared{
		desc:  fmt.Sprintf("sparse Session.Apply, q=%d, b=%d, n=%d, nnz=%d", sparseQ, sparseB, n, sp.NNZ()),
		ranks: part.P,
		check: checkAgainst(want),
		open: func(cfg machine.RunConfig) (*system, error) {
			part, err := partition.NewSpherical(sparseQ)
			if err != nil {
				return nil, err
			}
			srb, err := parallel.PackSparseRankBlocks(sp, part, sparseB)
			if err != nil {
				return nil, err
			}
			s, err := parallel.OpenSession(nil, parallel.Options{
				Part: part, B: sparseB, Wiring: parallel.WiringP2P, Sparse: srb, Machine: cfg,
			})
			if err != nil {
				return nil, err
			}
			return &system{
				request: func(k int) ([]float64, error) {
					r, err := s.Apply(xs[k%len(xs)])
					if err != nil {
						return nil, err
					}
					return r.Y, nil
				},
				close: s.Close,
			}, nil
		},
	}, nil
}

const (
	serveQ       = 3
	serveB       = 4
	serveClients = 8
	serveMaxCols = 4
)

// servePool runs serveClients concurrent clients against one pooled
// session: while one batch is in service the next fills, so requests wait
// in the admission queue and ride coalesced ApplyBatch calls.
func servePool(seed int64) (*prepared, error) {
	part, a, xs, want, err := denseProblem(seed, serveQ, serveB)
	if err != nil {
		return nil, err
	}
	return &prepared{
		desc: fmt.Sprintf("serve.Pool, 1 session, MaxCols %d, %d clients, q=%d, b=%d, n=%d",
			serveMaxCols, serveClients, serveQ, serveB, a.N),
		ranks: part.P,
		check: checkAgainst(want),
		open: func(cfg machine.RunConfig) (*system, error) {
			part, err := partition.NewSpherical(serveQ)
			if err != nil {
				return nil, err
			}
			p, err := serve.Open(a, serve.Options{
				Session:  parallel.Options{Part: part, B: serveB, Wiring: parallel.WiringP2P, Machine: cfg},
				Sessions: 1,
				MaxCols:  serveMaxCols,
				// Longer than a batch takes to fill with 8 clients, so
				// batches flush on size and their width stays steady.
				MaxWait: 2 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			return &system{
				request: func(k int) ([]float64, error) {
					r, err := p.Apply("bench", xs[k%len(xs)])
					if err != nil {
						return nil, err
					}
					return r.Y, nil
				},
				close: p.Close,
			}, nil
		},
	}, nil
}
