// Package sttsv is a Go library for Symmetric-Tensor-Times-Same-Vector
// computation, reproducing "Minimizing Communication for Parallel Symmetric
// Tensor Times Same Vector Computation" (Al Daas, Ballard, Grigori, Kumar,
// Rouse, Vérité — SPAA 2025).
//
// The package computes y = A ×₂ x ×₃ x for a fully symmetric n×n×n tensor
// A — elementwise y_i = Σ_{j,k} a_ijk·x_j·x_k — which is the bottleneck of
// the higher-order power method for tensor Z-eigenpairs and of symmetric CP
// gradient methods. It provides:
//
//   - packed symmetric tensor storage and sequential kernels (the paper's
//     Algorithms 3 and 4);
//   - the communication-optimal parallel algorithm (Algorithm 5) on a
//     simulated distributed-memory machine with exact communication
//     metering, built on tetrahedral block partitions generated from
//     Steiner (q²+1, q+1, 3) systems;
//   - the applications of §1: the higher-order power method (plus the
//     shifted SS-HOPM variant) and the symmetric CP gradient with a
//     gradient-descent decomposition driver;
//   - the two generalizations §8 names as future work: symmetric MTTKRP
//     and d-dimensional symmetric tensors;
//   - the closed-form cost model of the paper (lower bounds, algorithm
//     costs, schedule lengths) and the α-β-γ trace replay.
//
// This root package is a facade over the internal packages (tensor, sttsv,
// partition, schedule, parallel, hopm, steiner, costmodel, obs, …) and the
// only surface a module outside this one can import. It exports the entry
// points the examples/ programs and the paper regenerators (bench_test.go,
// ablation_bench_test.go, example_test.go) use, plus the types their
// signatures name.
package sttsv

import (
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/dsym"
	"repro/internal/hopm"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/steiner"
	internalsttsv "repro/internal/sttsv"
	"repro/internal/tensor"
)

// Tensor is a fully symmetric 3-tensor in packed lower-tetrahedron storage
// (n(n+1)(n+2)/6 values for dimension n).
type Tensor = tensor.Symmetric

// Dense is a full n×n×n cube, used by the naive algorithm and as an
// oracle.
type Dense = tensor.Dense

// Partition is a tetrahedral block partition (§6 of the paper).
type Partition = partition.Tetrahedral

// Schedule is a point-to-point communication schedule (§7.2).
type Schedule = schedule.Schedule

// SteinerSystem is a verified Steiner (n, r, 3) system.
type SteinerSystem = steiner.System

// Stats accumulates ternary-multiplication counts.
type Stats = internalsttsv.Stats

// Factors is a dense n×r factor matrix for symmetric CP.
type Factors = la.Matrix

// EigenOptions configures the higher-order power method.
type EigenOptions = hopm.Options

// Eigenpair is a Z-eigenpair candidate from the power method.
type Eigenpair = hopm.Eigenpair

// CPOptions configures the symmetric CP gradient-descent driver.
type CPOptions = hopm.CPOptions

// CPResult reports a symmetric CP decomposition attempt.
type CPResult = hopm.CPResult

// ParallelOptions configures a simulated parallel run of Algorithm 5.
type ParallelOptions = parallel.Options

// ParallelResult reports a simulated parallel run, including the per-rank
// communication meters.
type ParallelResult = parallel.Result

// Wiring selects how Algorithm 5 realizes its two vector exchanges.
type Wiring = parallel.Wiring

// Wiring constants: the communication-optimal point-to-point schedule and
// the fixed-width All-to-All of the pseudocode (2× the optimal bandwidth).
const (
	WiringP2P      = parallel.WiringP2P
	WiringAllToAll = parallel.WiringAllToAll
)

// RunConfig configures a simulated machine run: stall watchdog, trace
// observer, wire-event emission, transport factory and backend. Assign it
// to ParallelOptions.Machine.
type RunConfig = machine.RunConfig

// --- tensor construction ---

// NewTensor returns the zero symmetric tensor of dimension n.
func NewTensor(n int) *Tensor { return tensor.NewSymmetric(n) }

// RandomTensor returns a symmetric tensor with uniform(-1,1) lower-
// tetrahedron entries drawn deterministically from seed.
func RandomTensor(n int, seed int64) *Tensor {
	return tensor.Random(n, rand.New(rand.NewSource(seed)))
}

// RankOneTensor returns w·v∘v∘v.
func RankOneTensor(w float64, v []float64) *Tensor { return tensor.RankOne(w, v) }

// CPTensor returns Σ_ℓ w_ℓ·v_ℓ∘v_ℓ∘v_ℓ.
func CPTensor(weights []float64, vectors [][]float64) (*Tensor, error) {
	return tensor.CP(weights, vectors)
}

// HypergraphTensor returns the adjacency tensor of a 3-uniform hypergraph
// (entries 1/2 at each hyperedge, the standard centrality normalization).
func HypergraphTensor(n int, edges [][3]int) (*Tensor, error) {
	return tensor.HypergraphAdjacency(n, edges)
}

// RandomHypergraphTensor samples m distinct hyperedges on n vertices.
func RandomHypergraphTensor(n, m int, seed int64) (*Tensor, error) {
	return tensor.RandomHypergraph(n, m, rand.New(rand.NewSource(seed)))
}

// --- sequential computation ---

// Compute evaluates y = A ×₂ x ×₃ x with the symmetry-exploiting
// Algorithm 4 (n²(n+1)/2 ternary multiplications). A nil stats disables
// operation counting.
func Compute(a *Tensor, x []float64, stats *Stats) []float64 {
	return internalsttsv.Packed(a, x, stats)
}

// ComputeNaive evaluates STTSV with Algorithm 3 on a dense cube (all n³
// ternary multiplications) — the correctness oracle and baseline.
func ComputeNaive(a *Dense, x []float64, stats *Stats) []float64 {
	return internalsttsv.Naive(a, x, stats)
}

// Lambda returns A ×₁x ×₂x ×₃x = xᵀ(A ×₂x ×₃x).
func Lambda(a *Tensor, x []float64) float64 {
	return internalsttsv.Dot(x, internalsttsv.Packed(a, x, nil))
}

// --- partitions and parallel computation ---

// NewPartition builds the tetrahedral block partition for prime power q:
// m = q²+1 row blocks, P = q(q²+1) processors (the spherical Steiner
// family of §6).
func NewPartition(q int) (*Partition, error) { return partition.NewSpherical(q) }

// NewPartitionFromSteiner builds a partition from any Steiner (m, r, 3)
// system (for example SQS8() with P = 14, the paper's Appendix A).
func NewPartitionFromSteiner(sys *SteinerSystem) (*Partition, error) {
	return partition.New(sys)
}

// SQS8 returns the Steiner (8,4,3) quadruple system of the paper's
// Appendix A example.
func SQS8() *SteinerSystem { return steiner.SQS8() }

// BuildSchedule constructs the point-to-point communication schedule of
// §7.2 for a partition.
func BuildSchedule(part *Partition) (*Schedule, error) { return schedule.Build(part) }

// ParallelCompute runs Algorithm 5 on the simulated machine. The tensor
// may be nil for pure communication measurements (all blocks zero).
func ParallelCompute(a *Tensor, x []float64, opts ParallelOptions) (*ParallelResult, error) {
	return parallel.Run(a, x, opts)
}

// Session is a persistent parallel STTSV engine: the simulated machine is
// launched once against a fixed (tensor, partition, schedule, block edge,
// wiring) configuration and then serves a stream of operations — Apply,
// ApplyBatch, PowerMethod, MTTKRP — until Close. Every result is
// bit-identical to the corresponding one-shot call, but the machine
// launch, plan precomputation and all message buffers are paid once.
type Session = parallel.Session

// OpenSession launches a persistent session. The tensor may be nil for
// pure communication measurements. Callers must Close the session to stop
// the resident ranks.
func OpenSession(a *Tensor, opts ParallelOptions) (*Session, error) {
	return parallel.OpenSession(a, opts)
}

// RowBaselineCompute runs the 1D row-partition baseline (Θ(n) words per
// processor) on the simulated machine.
func RowBaselineCompute(a *Tensor, x []float64, p int) (*ParallelResult, error) {
	return parallel.RunRowBaseline(a, x, p, RunConfig{})
}

// SequenceBaselineCompute runs the §8 two-step approach (M = A ×₃ x in
// parallel, then y = M·x) on the simulated machine: ≈ 2n³ elementary
// operations and Ω(n) words per processor — the trade-off Algorithm 5
// avoids.
func SequenceBaselineCompute(a *Tensor, x []float64, p int) (*ParallelResult, error) {
	return parallel.RunSequenceBaseline(a, x, p, RunConfig{})
}

// --- applications ---

// PowerMethod runs Algorithm 1 (higher-order power method; SS-HOPM when
// opts.Shift != 0) to find a Z-eigenpair of a.
func PowerMethod(a *Tensor, opts EigenOptions) (*Eigenpair, error) {
	return hopm.PowerMethod(hopm.PackedSTTSV(a), a.N, opts)
}

// SuggestedShift returns a shift making SS-HOPM provably convergent on a.
func SuggestedShift(a *Tensor) float64 { return hopm.SuggestedShift(a) }

// CPGradient computes Algorithm 2: the gradient of the symmetric CP
// objective f(X) = 1/6·‖A − Σ_ℓ x_ℓ∘x_ℓ∘x_ℓ‖².
func CPGradient(a *Tensor, x *Factors) *Factors { return hopm.CPGradientTensor(a, x) }

// CPObjective evaluates the symmetric CP objective without forming the
// residual tensor.
func CPObjective(a *Tensor, x *Factors) float64 { return hopm.CPObjective(a, x) }

// SymmetricCP fits a rank-r symmetric CP model by gradient descent on the
// Algorithm 2 gradient.
func SymmetricCP(a *Tensor, r int, opts CPOptions) (*CPResult, error) {
	return hopm.SymmetricCP(a, r, opts)
}

// ExtractRankOnes pulls r rank-one components out of a by power iteration
// with deflation.
func ExtractRankOnes(a *Tensor, r int, opts EigenOptions) ([]float64, [][]float64, error) {
	return hopm.ExtractRankOnes(a, r, opts)
}

// NewFactors returns a zero n×r factor matrix.
func NewFactors(n, r int) *Factors { return la.NewMatrix(n, r) }

// FactorsFromColumns builds an n×r factor matrix from column vectors.
func FactorsFromColumns(cols [][]float64) *Factors {
	if len(cols) == 0 {
		return la.NewMatrix(0, 0)
	}
	m := la.NewMatrix(len(cols[0]), len(cols))
	for l, c := range cols {
		m.SetCol(l, c)
	}
	return m
}

// --- symmetric MTTKRP and d-dimensional tensors (§8) ---

// MTTKRP computes the symmetric Matricized-Tensor Times Khatri-Rao
// Product Y_iℓ = Σ_jk a_ijk·X_jℓ·X_kℓ in a single fused pass over the
// packed tensor (each column is an STTSV; the tensor is read once for all
// r columns).
func MTTKRP(a *Tensor, x *Factors, stats *Stats) *Factors {
	return mttkrp.Fused(a, x, stats)
}

// MTTKRPColumnwise computes the same result as r independent STTSV calls
// (r passes over the tensor) — the baseline the fused kernel is measured
// against.
func MTTKRPColumnwise(a *Tensor, x *Factors, stats *Stats) *Factors {
	return mttkrp.Columnwise(a, x, stats)
}

// ParallelMTTKRP runs the symmetric MTTKRP on the simulated machine with
// the tetrahedral partition: the same schedule as Algorithm 5 carrying all
// r columns per message, so bandwidth is exactly r× the single-vector cost
// at unchanged message counts.
func ParallelMTTKRP(a *Tensor, x *Factors, r int, opts ParallelOptions) (*Factors, *ParallelResult, error) {
	return parallel.RunMTTKRP(a, x, r, opts)
}

// DTensor is a fully symmetric order-d tensor of dimension n in packed
// multiset storage (C(n+d−1, d) values); the d=3 layout matches Tensor.
type DTensor = dsym.Tensor

// RandomDTensor fills the stored entries with uniform(-1,1) values drawn
// deterministically from seed.
func RandomDTensor(n, d int, seed int64) *DTensor {
	return dsym.Random(n, d, rand.New(rand.NewSource(seed)))
}

// DCompute evaluates the d-dimensional STTSV y = A ×₂x ⋯ ×_d x with the
// symmetry-exploiting generalization of Algorithm 4 (≈ d·n^d/d! merged
// operations instead of the naive n^d).
func DCompute(t *DTensor, x []float64) []float64 { return dsym.Apply(t, x, nil) }

// --- cost model (paper formulas) ---

// LowerBoundWords returns the Theorem 5.2 communication lower bound
// 2·(n(n−1)(n−2)/P)^{1/3} − 2n/P.
func LowerBoundWords(n, p int) float64 { return costmodel.LowerBoundWords(n, p) }

// OptimalWords returns Algorithm 5's per-processor bandwidth with the
// point-to-point wiring: 2·(n(q+1)/(q²+1) − n/P).
func OptimalWords(n, q int) float64 { return costmodel.OptimalWords(n, q) }

// AllToAllWords returns the All-to-All wiring's bandwidth
// 4n/(q+1)·(1−1/P) — twice the lower bound's leading term.
func AllToAllWords(n, q int) float64 { return costmodel.AllToAllWords(n, q) }

// ScheduleSteps returns the §7.2.2 point-to-point step count
// q³/2 + 3q²/2 − 1.
func ScheduleSteps(q int) int { return schedule.TheoreticalSteps(q) }

// MachineConfig is one admissible machine configuration with predicted
// costs (see internal/plan).
type MachineConfig = plan.Config

// BestMachine recommends the configuration with the smallest predicted
// per-processor communication within the processor budget.
func BestMachine(n, maxP int) (MachineConfig, error) { return plan.Best(n, maxP) }

// --- tracing and replay ---

// TraceRecorder is a thread-safe collector of trace events; pass
// Observer() as RunConfig.Observer, then Trace() for analysis.
type TraceRecorder = obs.Recorder

// Trace is an ordered set of run events with phase/rank aggregation
// helpers and the trace-conformance check against a run's meters.
type Trace = obs.Trace

// TimeModel is the α-β-γ cost model used to replay a trace on a
// simulated clock: per-message latency, per-word inverse bandwidth, and
// per-ternary-multiplication compute time (§3.1).
type TimeModel = obs.TimeModel

// DefaultTimeModel returns a plausible commodity-cluster operating point
// (2 µs latency, ≈6.4 GB/s bandwidth, 4·10⁹ ternary mults/s).
func DefaultTimeModel() TimeModel { return obs.DefaultTimeModel() }

// Timeline is a replayed trace: per-rank critical-path times, activity
// attribution (compute / send / recv-wait / overlap),
// Gantt spans and per-phase step counts.
type Timeline = obs.Timeline

// Replay executes a complete logical trace on a simulated clock under
// the given α-β-γ model. For a fault-free point-to-point Algorithm 5 run
// each exchange phase replays to exactly the schedule's
// Σ(α + maxWords·β) makespan over its q³/2+3q²/2−1 steps.
func Replay(t *Trace, m TimeModel) (*Timeline, error) { return obs.Replay(t, m) }
