package sttsv

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/tensor"
)

// Operator is a reusable blocked STTSV applier: it extracts all
// tetrahedral blocks of a tensor once into contiguous kind-grouped storage
// (tensor.BlockPacked) and applies y = A ×₂ x ×₃ x repeatedly without
// re-extraction, through the register-tiled kernels. This is the
// local-compute engine behind repeated STTSV applications — power
// iterations, CP gradient sweeps — where the seed paid full repacking cost
// per application.
//
// An Operator holds scratch buffers and is NOT safe for concurrent Apply
// calls; share the tensor by building one Operator per goroutine (the
// packed blocks are read-only and could be shared, but the simple contract
// is one Operator per caller).
type Operator struct {
	n, m, b int
	packed  *tensor.BlockPacked
	xp, yp  []float64
}

// NewOperator packs the tensor on an m×m×m block grid and returns the
// reusable applier.
func NewOperator(a *tensor.Symmetric, m int) *Operator {
	if m < 1 {
		panic(fmt.Sprintf("sttsv: NewOperator with m=%d", m))
	}
	b := intmath.CeilDiv(a.N, m)
	if b < 1 {
		b = 1 // n == 0 still needs a well-formed (empty) grid
	}
	return &Operator{
		n:      a.N,
		m:      m,
		b:      b,
		packed: tensor.PackTetrahedron(a, m, b),
		xp:     make([]float64, m*b),
		yp:     make([]float64, m*b),
	}
}

// N returns the tensor dimension.
func (op *Operator) N() int { return op.n }

// M returns the block-grid edge (number of row blocks).
func (op *Operator) M() int { return op.m }

// B returns the block edge length ceil(n/m).
func (op *Operator) B() int { return op.b }

// Words returns the packed block storage in 8-byte words.
func (op *Operator) Words() int { return op.packed.Words() }

// Packed exposes the block-packed tensor (read-only by convention) for
// callers that iterate the blocks themselves, e.g. benchmark baselines.
func (op *Operator) Packed() *tensor.BlockPacked { return op.packed }

// Apply computes y = A ×₂ x ×₃ x, reusing the packed blocks. The blocks
// are applied in packed order, so for a fixed (tensor, m) the same x
// always yields the same y bits.
func (op *Operator) Apply(x []float64, stats *Stats) []float64 {
	if len(x) != op.n {
		panic(fmt.Sprintf("sttsv: vector length %d, tensor dimension %d", len(x), op.n))
	}
	copy(op.xp, x)
	for i := op.n; i < len(op.xp); i++ {
		op.xp[i] = 0
	}
	for i := range op.yp {
		op.yp[i] = 0
	}
	b := op.b
	for _, blk := range op.packed.Blocks {
		I, J, K := blk.I, blk.J, blk.K
		BlockContribute(blk,
			op.xp[I*b:(I+1)*b], op.xp[J*b:(J+1)*b], op.xp[K*b:(K+1)*b],
			op.yp[I*b:(I+1)*b], op.yp[J*b:(J+1)*b], op.yp[K*b:(K+1)*b], stats)
	}
	y := make([]float64, op.n)
	copy(y, op.yp)
	return y
}
