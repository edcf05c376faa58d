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
//   - the closed-form cost model of the paper (lower bounds, algorithm
//     costs, schedule lengths) for experiment regeneration.
//
// This root package is a facade: the implementation lives in internal
// packages (tensor, sttsv, partition, schedule, machine, collective,
// parallel, hopm, steiner, gf, costmodel) and the most useful entry points
// are re-exported here under stable names.
package sttsv

import (
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/hopm"
	"repro/internal/la"
	"repro/internal/parallel"
	"repro/internal/partition"
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

// ComputeBlocked evaluates STTSV through the tetrahedral block kernels on
// an m×m×m block grid — the sequential skeleton of Algorithm 5's local
// phase.
func ComputeBlocked(a *Tensor, x []float64, m int, stats *Stats) []float64 {
	return internalsttsv.Blocked(a, x, m, stats)
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
// system (for example steiner.SQS8() with P = 14, the paper's Appendix A).
func NewPartitionFromSteiner(sys *SteinerSystem) (*Partition, error) {
	return partition.New(sys)
}

// SQS8 returns the Steiner (8,4,3) quadruple system of the paper's
// Appendix A example.
func SQS8() *SteinerSystem { return steiner.SQS8() }

// SphericalSteiner returns the Steiner (q²+1, q+1, 3) system for prime
// power q.
func SphericalSteiner(q int) (*SteinerSystem, error) { return steiner.Spherical(q) }

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
// bit-identical to the corresponding one-shot call (ParallelCompute,
// DistributedPowerMethod, ParallelMTTKRP), but the machine launch, plan
// precomputation and all message buffers are paid once: the steady-state
// exchange path performs no allocations.
type Session = parallel.Session

// BatchResult reports a multi-column session application.
type BatchResult = parallel.BatchResult

// RecoveryOptions opts a session into crash recovery (set
// ParallelOptions.Recovery): a rank death relaunches the machine one
// epoch later, rolls it back to the last checkpoint and replays, within a
// bounded replay budget. Committed results stay bit-identical
// to the crash-free session and logical meters count committed work
// exactly once; recovery overhead appears only on the wire meters.
type RecoveryOptions = parallel.RecoveryOptions

// RecoveryStats counts the supervisor's interventions over a session's
// lifetime (Session.RecoveryStats).
type RecoveryStats = parallel.RecoveryStats

// ErrSessionBusy is returned (wrapped) by Session operations invoked
// while another operation is in flight; match with errors.Is.
var ErrSessionBusy = parallel.ErrSessionBusy

// OpenSession launches a persistent session. The tensor may be nil for
// pure communication measurements. Callers must Close the session to stop
// the resident ranks.
func OpenSession(a *Tensor, opts ParallelOptions) (*Session, error) {
	return parallel.OpenSession(a, opts)
}

// RankBlocks caches per-rank extracted block sets so repeated
// ParallelCompute calls on one tensor skip re-extraction (set
// ParallelOptions.Blocks).
type RankBlocks = parallel.RankBlocks

// PackRankBlocks extracts every rank's tetrahedral block set once for
// reuse across simulated applications.
func PackRankBlocks(a *Tensor, part *Partition, b int) (*RankBlocks, error) {
	return parallel.PackRankBlocks(a, part, b)
}

// RowBaselineCompute runs the 1D row-partition baseline (Θ(n) words per
// processor) on the simulated machine.
func RowBaselineCompute(a *Tensor, x []float64, p int) (*ParallelResult, error) {
	return parallel.RunRowBaseline(a, x, p, RunConfig{})
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

// Processors returns P = q(q²+1).
func Processors(q int) int { return costmodel.Processors(q) }

// ScheduleSteps returns the §7.2.2 point-to-point step count
// q³/2 + 3q²/2 − 1.
func ScheduleSteps(q int) int { return schedule.TheoreticalSteps(q) }
