package parallel

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// SparseRankBlocks is the sparse analogue of RankBlocks: each rank's
// tetrahedral block set (TB₃(R_p) ∪ N_p ∪ D_p) extracted from a sparse
// tensor as sorted coordinate runs (sparse.Pack) instead of dense b³
// panels. A rank holds only the nonzeros its blocks contain — 20 bytes
// per nonzero (three int32 local indices and a float64 value) where the
// dense extraction needs ≈ n³/6P words — which is what lets a session
// serve hypergraph problems at n ≥ 10⁶, where a single dense block would
// already be too large to allocate.
//
// The per-rank block lists are kind-grouped in exactly the order
// tensor.PackBlocks groups dense blocks, and each sparse block kernel
// reproduces the scalar dense kernel's association order over the stored
// nonzeros — so a sparse session's results are bit-identical to a dense
// session running the scalar kernel on the materialized tensor (the
// conformance suite pins this).
//
// The blocks are read-only after packing and safe to share across
// sessions (a serving pool packs once).
type SparseRankBlocks struct {
	// P and B identify the configuration the cache was built for; a
	// session rejects a mismatched cache.
	P, B int
	// N is the tensor dimension.
	N   int
	per [][]*sparse.Block
}

// PackSparseRankBlocks packs the tensor once (a two-pass counting sort
// of the sorted entries into exact-size arrays, see sparse.Pack) and
// selects every rank's kind-grouped block set from the shared packing.
// n may be less than the partition's padded dimension M·b: block
// coordinates past the tensor's last row block hold no entries and are
// skipped.
func PackSparseRankBlocks(sp *sparse.Tensor, part *partition.Tetrahedral, b int) (*SparseRankBlocks, error) {
	if sp == nil {
		return nil, fmt.Errorf("parallel: nil sparse tensor")
	}
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	if b < 1 {
		return nil, fmt.Errorf("parallel: block edge %d", b)
	}
	if sp.N > part.M*b {
		return nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d (m=%d, b=%d)", sp.N, part.M*b, part.M, b)
	}
	pk, err := sparse.Pack(sp, b)
	if err != nil {
		return nil, err
	}
	srb := &SparseRankBlocks{P: part.P, B: b, N: sp.N, per: make([][]*sparse.Block, part.P)}
	for p := 0; p < part.P; p++ {
		srb.per[p] = pk.Select(blockCoords(part, p))
	}
	return srb, nil
}

// Rank returns rank p's packed sparse block set.
func (srb *SparseRankBlocks) Rank(p int) []*sparse.Block { return srb.per[p] }

// Loads returns each rank's stored-nonzero count — the load vector the
// nnz-aware partition balances (obs.ComputeLoadStats summarizes it).
func (srb *SparseRankBlocks) Loads() []int64 {
	loads := make([]int64, srb.P)
	for p, blocks := range srb.per {
		for _, blk := range blocks {
			loads[p] += int64(blk.NNZ())
		}
	}
	return loads
}

// sparseBlocksFor validates a supplied cache against the run
// configuration.
func sparseBlocksFor(srb *SparseRankBlocks, part *partition.Tetrahedral, b int) (*SparseRankBlocks, error) {
	if srb.P != part.P || srb.B != b {
		return nil, fmt.Errorf("parallel: cached sparse blocks built for (P=%d, b=%d), run needs (P=%d, b=%d)",
			srb.P, srb.B, part.P, b)
	}
	return srb, nil
}
