package parallel

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// rankStep is what a rank computes for one application, chosen when a
// session opens: run takes the rank's staged x arena to its finished y
// arena for cols columns, metering each phase into pr. Dense and sparse
// sessions run Algorithm 5's tetrahedral step (tetraStep); CP sessions
// project, all-reduce and update (cpRuntime.step). Apply, ApplyBatch,
// MTTKRP and the power method wrap the same step, so every kind of
// session dispatches one apply closure and one power iteration.
type rankStep struct {
	run func(rk *sessionRank, c *machine.Comm, cols int, pr *phaseRecorder)
	// labels lists the phases run registers, in order; pmLabels appends
	// the power method's all-reduce.
	labels, pmLabels []string
}

func newRankStep(run func(rk *sessionRank, c *machine.Comm, cols int, pr *phaseRecorder), labels ...string) rankStep {
	return rankStep{run: run, labels: labels, pmLabels: append(slices.Clip(labels), "all-reduce")}
}

// tetraStep is Algorithm 5's step (§7): gather the row-block chunks,
// apply the rank's tetrahedral block set, reduce-scatter the partial
// sums. Both exchanges run over the rank's layout, whichever wiring
// built it.
func tetraStep(op localOperator) rankStep {
	return newRankStep(func(rk *sessionRank, c *machine.Comm, cols int, pr *phaseRecorder) {
		pr.comm(c, "gather", func() { rk.gather(c, cols) })
		rk.zeroY()
		pr.local(c, "local", func() int64 { return op.contribute(c.Rank(), rk, cols) })
		pr.comm(c, "reduce-scatter", func() { rk.scatter(c, cols) })
	}, "gather", "local", "reduce-scatter")
}

// localOperator is the tetrahedral step's rank-local compute seam: the
// one point where the staged x arena is turned into partial y
// contributions, so a dense tensor and a packed sparse tensor run the
// same exchanges, checkpoints and recovery.
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
