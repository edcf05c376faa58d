package sttsv

import (
	"math/rand"

	"repro/internal/dsym"
	"repro/internal/hopm"
	"repro/internal/la"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/sparse"
	"repro/internal/steiner"
)

// This file exposes the extensions beyond the paper's core results — the
// two generalizations its §8 names as future work, implemented here:
// symmetric MTTKRP (multi-vector STTSV) and d-dimensional symmetric
// tensors.

// --- symmetric MTTKRP (§8) ---

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

// --- d-dimensional symmetric tensors (§8) ---

// DTensor is a fully symmetric order-d tensor of dimension n in packed
// multiset storage (C(n+d−1, d) values); the d=3 layout matches Tensor.
type DTensor = dsym.Tensor

// NewDTensor returns the zero symmetric order-d tensor of dimension n.
func NewDTensor(n, d int) *DTensor { return dsym.New(n, d) }

// RandomDTensor fills the stored entries with uniform(-1,1) values drawn
// deterministically from seed.
func RandomDTensor(n, d int, seed int64) *DTensor {
	return dsym.Random(n, d, rand.New(rand.NewSource(seed)))
}

// RankOneDTensor returns w·x^{∘d}.
func RankOneDTensor(w float64, x []float64, d int) *DTensor { return dsym.RankOne(w, x, d) }

// DCompute evaluates the d-dimensional STTSV y = A ×₂x ⋯ ×_d x with the
// symmetry-exploiting generalization of Algorithm 4 (≈ d·n^d/d! merged
// operations instead of the naive n^d).
func DCompute(t *DTensor, x []float64) []float64 { return dsym.Apply(t, x, nil) }

// DLowerBoundWords returns the d-dimensional generalization of the
// Theorem 5.2 communication lower bound: 2·(d!·C(n,d)/P)^{1/d} − 2n/P.
func DLowerBoundWords(n, d, p int) float64 { return dsym.LowerBoundWords(n, d, p) }

// DPowerMethod runs the order-d higher-order power method on t, returning
// the eigenvalue estimate, unit vector, iteration count and convergence
// flag.
func DPowerMethod(t *DTensor, seed int64, shift float64, maxIter int, tol float64) (float64, []float64, int, bool) {
	return dsym.PowerMethod(t, seed, shift, maxIter, tol)
}

// --- sequence approach and extra Steiner families ---

// SequenceBaselineCompute runs the §8 two-step approach (M = A ×₃ x in
// parallel, then y = M·x) on the simulated machine: ≈ 2n³ elementary
// operations and Ω(n) words per processor — the trade-off Algorithm 5
// avoids.
func SequenceBaselineCompute(a *Tensor, x []float64, p int) (*ParallelResult, error) {
	return parallel.RunSequenceBaseline(a, x, p, RunConfig{})
}

// SQSDoubled returns the Steiner quadruple system SQS(8·2^k) built by the
// classical doubling construction, extending the machine sizes the
// tetrahedral partition supports to P = 14, 140, 1240, …
func SQSDoubled(k int) (*SteinerSystem, error) { return steiner.SQSDoubled(k) }

// --- ergonomics ---

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

// --- sparse tensors and additional eigensolvers ---

// SparseTensor is a symmetric 3-tensor in coordinate format: O(nnz) memory
// and STTSV work, the natural representation for hypergraph adjacency
// tensors.
type SparseTensor = sparse.Tensor

// SparseEntry is one stored nonzero of a SparseTensor.
type SparseEntry = sparse.Entry

// NewSparseTensor builds a sparse symmetric tensor from coordinate data
// (indices in any order; one entry per index multiset).
func NewSparseTensor(n int, coords []SparseEntry) (*SparseTensor, error) {
	return sparse.New(n, coords)
}

// SparseFromHypergraph builds the sparse adjacency tensor of a 3-uniform
// hypergraph.
func SparseFromHypergraph(n int, edges [][3]int) (*SparseTensor, error) {
	return sparse.FromHypergraph(n, edges)
}

// SparseFromTensor sparsifies packed storage, keeping |value| > threshold.
func SparseFromTensor(a *Tensor, threshold float64) *SparseTensor {
	return sparse.FromPacked(a, threshold)
}

// SparseCompute evaluates y = A ×₂x ×₃x in O(nnz) work.
func SparseCompute(a *SparseTensor, x []float64, stats *Stats) []float64 {
	return a.Apply(x, stats)
}

// SparsePowerMethod runs the higher-order power method on a sparse tensor.
func SparsePowerMethod(a *SparseTensor, opts EigenOptions) (*Eigenpair, error) {
	return hopm.PowerMethod(a.STTSV(), a.N, opts)
}

// HEigenpair is an H-eigenpair candidate (A×₂x×₃x = λ·x^[2], x >= 0).
type HEigenpair = hopm.HEigenpair

// HEigenPowerMethod runs the Ng–Qi–Zhou iteration for the largest
// H-eigenvalue of a nonnegative symmetric tensor — another of the §1
// applications whose bottleneck is the STTSV kernel.
func HEigenPowerMethod(a *Tensor, maxIter int, tol float64) (*HEigenpair, error) {
	return hopm.HEigenPowerMethod(hopm.PackedSTTSV(a), a.N, maxIter, tol)
}

// AdaptivePowerMethod runs SS-HOPM with a dynamically shrinking shift:
// as robust as the safe static shift, usually far fewer iterations.
func AdaptivePowerMethod(a *Tensor, initialShift float64, opts EigenOptions) (*Eigenpair, error) {
	return hopm.AdaptivePowerMethod(hopm.PackedSTTSV(a), a.N, initialShift, opts)
}

// EnumerateEigenpairs collects distinct converged Z-eigenpairs from many
// power-method restarts, sorted by decreasing |λ|.
func EnumerateEigenpairs(a *Tensor, restarts int, opts EigenOptions) ([]*Eigenpair, error) {
	return hopm.EnumerateEigenpairs(hopm.PackedSTTSV(a), a.N, restarts, opts, 1e-6)
}

// --- fully distributed power method ---

// PowerOptions configures the distributed higher-order power method.
type PowerOptions = parallel.PowerOptions

// EigenResult reports a distributed power-method run, including its
// communication meters.
type EigenResult = parallel.EigenResult

// DistributedPowerMethod runs Algorithm 1 end-to-end on the simulated
// machine: the iterate stays distributed in the tetrahedral chunk layout
// for the whole run, each iteration costing two communication-optimal
// exchanges plus a scalar all-reduce.
func DistributedPowerMethod(a *Tensor, opts ParallelOptions, po PowerOptions) (*EigenResult, error) {
	return parallel.RunPowerMethod(a, opts, po)
}

// --- machine planning ---

// MachineConfig is one admissible machine configuration with predicted
// costs (see internal/plan).
type MachineConfig = plan.Config

// EnumerateMachines lists every admissible tetrahedral-partition machine
// with P <= maxP, costed for problem dimension n.
func EnumerateMachines(n, maxP int) ([]MachineConfig, error) { return plan.Enumerate(n, maxP) }

// BestMachine recommends the configuration with the smallest predicted
// per-processor communication within the processor budget.
func BestMachine(n, maxP int) (MachineConfig, error) { return plan.Best(n, maxP) }
