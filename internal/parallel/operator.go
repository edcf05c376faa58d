package parallel

import (
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// localOperator is the session's rank-local compute seam: the one point
// where the staged x arena is turned into partial y contributions. The
// communication structure around it — gather, reduce-scatter, the power
// method's all-reduce, checkpointing, recovery — is operator-agnostic,
// so a dense tensor, a packed sparse tensor, and (with its own exchange
// shape) a low-rank CP operator all run through the same Session.
type localOperator interface {
	// contribute runs rank me's local compute for cols staged columns,
	// reading x row blocks and accumulating y row blocks through the
	// rank's arena accessors, and returns the ternary-multiplication
	// count for the logical compute meters.
	contribute(me int, rk *sessionRank, cols int) int64
}

// denseOp applies a rank's dense packed block set with the tiled block
// kernels, or the scalar reference kernel under Options.ScalarKernel.
type denseOp struct {
	blocks *RankBlocks
	scalar bool
}

func (o *denseOp) contribute(me int, rk *sessionRank, cols int) int64 {
	return rk.contributeDense(o.blocks.Rank(me), cols, o.scalar)
}

// contributeDense applies blocks to cols staged columns, column by column
// and each column's blocks in their kind-grouped order, so column l's bits
// equal a single-column application's. The rank works on one goroutine —
// the simulated ranks already occupy the cores — and the arena accessors
// return reslices of the resident arenas, so this allocates nothing.
func (rk *sessionRank) contributeDense(blocks []*tensor.Block, cols int, scalar bool) int64 {
	var st sttsv.Stats
	for l := 0; l < cols; l++ {
		for _, blk := range blocks {
			xI, xJ, xK := rk.xRowCol(blk.I, l), rk.xRowCol(blk.J, l), rk.xRowCol(blk.K, l)
			yI, yJ, yK := rk.yRowCol(blk.I, l), rk.yRowCol(blk.J, l), rk.yRowCol(blk.K, l)
			if scalar {
				sttsv.BlockContributeScalar(blk, xI, xJ, xK, yI, yJ, yK, &st)
			} else {
				sttsv.BlockContribute(blk, xI, xJ, xK, yI, yJ, yK, &st)
			}
		}
	}
	return st.TernaryMults
}

// sparseOp applies a rank's packed sparse block set. Blocks are walked
// sequentially in their kind-grouped order and each sparse kernel
// reproduces the scalar dense kernel's association order, so the output
// bits match a dense scalar session exactly while the work is O(nnz)
// instead of O(b³) per block. The arena accessors return reslices of the
// resident arenas, so the steady state allocates nothing.
type sparseOp struct {
	blocks *SparseRankBlocks
}

func (o *sparseOp) contribute(me int, rk *sessionRank, cols int) int64 {
	var st sttsv.Stats
	blocks := o.blocks.Rank(me)
	for l := 0; l < cols; l++ {
		for _, blk := range blocks {
			sparse.BlockApply(blk,
				rk.xRowCol(blk.I, l), rk.xRowCol(blk.J, l), rk.xRowCol(blk.K, l),
				rk.yRowCol(blk.I, l), rk.yRowCol(blk.J, l), rk.yRowCol(blk.K, l), &st)
		}
	}
	return st.TernaryMults
}
