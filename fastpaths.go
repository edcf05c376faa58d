package sttsv

import (
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sparse"
	internalsttsv "repro/internal/sttsv"
)

// This file exposes the sparse and low-rank parallel fast paths: packed
// sparse rank blocks (a sparse session stores O(nnz/P) words per rank
// instead of O(n³/6P)), nnz-weighted diagonal assignment for skewed
// hypergraphs, and the rank-r CP operator whose parallel apply moves
// O(r) words per rank independent of n. All three run through the same
// Session engine and serving tier as the dense path, with bit-identical
// semantics pinned by the conformance suites. See DESIGN.md ("Sparse and
// low-rank fast paths").

// --- sparse sessions ---

// SparseRankBlocks is each rank's tetrahedral block set extracted from a
// sparse tensor as blocks of sorted coordinate runs (local indices and
// values of the stored nonzeros only) — the sparse analogue of
// RankBlocks, shareable read-only across sessions.
type SparseRankBlocks = parallel.SparseRankBlocks

// PackSparseRankBlocks packs a sparse tensor once and selects every
// rank's kind-grouped block set (set ParallelOptions.Sparse).
func PackSparseRankBlocks(sp *SparseTensor, part *Partition, b int) (*SparseRankBlocks, error) {
	return parallel.PackSparseRankBlocks(sp, part, b)
}

// OpenSparseSession launches a persistent parallel session over a sparse
// tensor: same schedule, meters, checkpoints and recovery as a dense
// session, but per-rank storage and local work scale with the rank's
// stored nonzeros. Results are bit-identical to a dense session running
// the scalar kernel on sp.Dense().
func OpenSparseSession(sp *SparseTensor, opts ParallelOptions) (*Session, error) {
	if opts.Sparse == nil && sp != nil {
		srb, err := parallel.PackSparseRankBlocks(sp, opts.Part, opts.B)
		if err != nil {
			return nil, err
		}
		opts.Sparse = srb
	}
	return parallel.OpenSession(nil, opts)
}

// SparseRandomHypergraph samples a uniform random 3-uniform hypergraph
// adjacency tensor with the given edge count.
func SparseRandomHypergraph(n, edges int, seed int64) (*SparseTensor, error) {
	return sparse.RandomHypergraph(n, edges, seed)
}

// SparseSkewedHypergraph samples a hypergraph with power-law vertex
// popularity (skew > 0 concentrates edges on low-index vertices) — the
// regime where nnz-weighted partitioning pays.
func SparseSkewedHypergraph(n, edges int, skew float64, seed int64) (*SparseTensor, error) {
	return sparse.SkewedHypergraph(n, edges, skew, seed)
}

// --- nnz-weighted partitioning ---

// PartitionCoord identifies one b×b×b block of the packed tetrahedron.
type PartitionCoord = partition.Coord

// NewWeightedPartition builds the tetrahedral partition with diagonal
// blocks assigned greedily by the supplied per-block weight (typically
// nnz from SparseBlockWeights) instead of by count. Off-diagonal
// assignment — and hence the communication-optimal schedule — is
// unchanged.
func NewWeightedPartition(q int, weight func(PartitionCoord) int64) (*Partition, error) {
	return partition.NewSphericalWeighted(q, weight)
}

// SparseBlockWeights returns the per-block stored-nonzero weight
// function of a sparse tensor at block edge b, for NewWeightedPartition.
func SparseBlockWeights(sp *SparseTensor, b int) func(PartitionCoord) int64 {
	counts := sparse.BlockCounts(sp, b)
	return func(c PartitionCoord) int64 { return counts[[3]int{c.I, c.J, c.K}] }
}

// LoadStats summarizes a per-rank load vector (max/mean imbalance).
type LoadStats = obs.LoadStats

// ComputeLoadStats reduces a per-rank load vector, e.g.
// SparseRankBlocks.Loads().
func ComputeLoadStats(loads []int64) LoadStats { return obs.ComputeLoadStats(loads) }

// --- low-rank CP sessions ---

// CPOperator is a symmetric rank-r CP tensor A = Σ_k λ_k v_k³ held in
// factored form: Apply runs in O(nr) instead of O(n³).
type CPOperator = internalsttsv.CPOperator

// NewCPOperator builds the operator from factor columns (vectors[k] is
// v_k, weights[k] its λ_k).
func NewCPOperator(weights []float64, vectors [][]float64) (*CPOperator, error) {
	return internalsttsv.NewCPOperator(weights, vectors)
}

// CPSessionOptions configures a low-rank CP session: rank count, machine
// config, batching width, crash recovery.
type CPSessionOptions = parallel.CPOptions

// OpenCPSession launches a P-rank session applying a CP operator with
// O(n/P · r) state per rank and O(r) words of communication per apply —
// independent of n. Results are bit-identical to the sequential
// CPOperator.ApplyChunked(x, P) oracle.
func OpenCPSession(op *CPOperator, opts CPSessionOptions) (*Session, error) {
	return parallel.OpenCPSession(op, opts)
}

// --- serving tier ---

// OpenSparseServePool packs the sparse tensor once and serves it from a
// coalescing session pool — the configuration for hypergraph centrality
// at n ≥ 10⁶, where a dense pool could not allocate one session.
func OpenSparseServePool(sp *SparseTensor, opts ServeOptions) (*ServePool, error) {
	return serve.OpenSparse(sp, opts)
}

// OpenCPServePool serves a shared low-rank CP operator from a coalescing
// pool of ranks-rank sessions.
func OpenCPServePool(op *CPOperator, ranks int, opts ServeOptions) (*ServePool, error) {
	return serve.OpenCP(op, ranks, opts)
}
