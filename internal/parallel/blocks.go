package parallel

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// RankBlocks caches the extracted per-rank tetrahedral block sets
// (TB₃(R_p) ∪ N_p ∪ D_p) of one tensor under one partition and block edge.
// Repeated simulated applications — the higher-order power method driving
// Run once per iteration, or repeated MTTKRP products — pass it via
// Options.Blocks so the tensor is packed once instead of once per
// application. Each rank's set is a contiguous kind-grouped
// tensor.BlockPacked, exactly the ≈ n³/6P share of §6.1.3.
//
// The blocks are read-only after packing and safe to share across
// concurrent runs.
type RankBlocks struct {
	// P and B identify the configuration the cache was built for; Run
	// rejects a mismatched cache.
	P, B int
	// N is the dimension of the packed tensor (0 when packed from nil).
	N   int
	per []*tensor.BlockPacked
}

// PackRankBlocks extracts every rank's block set. A nil tensor yields
// full-size, zero-valued blocks that the kernel still runs over (pure
// communication measurements pay the local compute too).
func PackRankBlocks(a *tensor.Symmetric, part *partition.Tetrahedral, b int) (*RankBlocks, error) {
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	if b < 1 {
		return nil, fmt.Errorf("parallel: block edge %d", b)
	}
	rb := &RankBlocks{P: part.P, B: b, per: make([]*tensor.BlockPacked, part.P)}
	if a != nil {
		rb.N = a.N
	}
	for p := 0; p < part.P; p++ {
		rb.per[p] = tensor.PackBlocks(a, blockCoords(part, p), b)
	}
	return rb, nil
}

// blockCoords lists rank p's tetrahedral block coordinates in the
// partition's order: the selection every dense and sparse packing makes.
func blockCoords(part *partition.Tetrahedral, p int) [][3]int {
	cs := part.Blocks(p)
	coords := make([][3]int, len(cs))
	for i, c := range cs {
		coords[i] = [3]int{c.I, c.J, c.K}
	}
	return coords
}

// Rank returns rank p's packed block set.
func (rb *RankBlocks) Rank(p int) []*tensor.Block { return rb.per[p].Blocks }

// Words returns the total packed storage across all ranks in 8-byte words.
func (rb *RankBlocks) Words() int {
	total := 0
	for _, bp := range rb.per {
		total += bp.Words()
	}
	return total
}

// rankBlocksFor resolves the per-rank block sets for a run: the supplied
// cache when compatible, otherwise a fresh extraction.
func rankBlocksFor(opts *Options, a *tensor.Symmetric, part *partition.Tetrahedral, b int) (*RankBlocks, error) {
	if rb := opts.Blocks; rb != nil {
		n := 0
		if a != nil {
			n = a.N
		}
		if rb.P != part.P || rb.B != b || rb.N != n {
			return nil, fmt.Errorf("parallel: cached blocks built for (P=%d, b=%d, n=%d), run needs (P=%d, b=%d, n=%d)",
				rb.P, rb.B, rb.N, part.P, b, n)
		}
		return rb, nil
	}
	return PackRankBlocks(a, part, b)
}
