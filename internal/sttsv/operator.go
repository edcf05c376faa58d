package sttsv

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/tensor"
)

// Operator is a reusable blocked STTSV applier: it extracts all
// tetrahedral blocks of a tensor once into contiguous kind-grouped storage
// (tensor.BlockPacked) and applies y = A ×₂ x ×₃ x repeatedly without
// re-extraction, through the register-tiled kernels and, optionally, the
// multicore Executor. This is the local-compute engine behind repeated
// STTSV applications — power iterations, CP gradient sweeps — where the
// seed paid full repacking cost per application.
//
// An Operator holds scratch buffers and is NOT safe for concurrent Apply
// calls; share the tensor by building one Operator per goroutine (the
// packed blocks are read-only and could be shared, but the simple contract
// is one Operator per caller).
type Operator struct {
	n, m, b int
	packed  *tensor.BlockPacked
	exec    *Executor
	xp, yp  []float64
}

// NewOperator packs the tensor on an m×m×m block grid and returns the
// reusable applier. workers selects the local-compute parallelism:
// 1 is sequential, 0 selects GOMAXPROCS.
func NewOperator(a *tensor.Symmetric, m, workers int) *Operator {
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
		exec:   NewExecutor(workers),
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

// Workers returns the local-compute worker count.
func (op *Operator) Workers() int { return op.exec.Workers() }

// Words returns the packed block storage in 8-byte words.
func (op *Operator) Words() int { return op.packed.Words() }

// Packed exposes the block-packed tensor (read-only by convention) for
// callers that iterate the blocks themselves, e.g. benchmark baselines.
func (op *Operator) Packed() *tensor.BlockPacked { return op.packed }

// Apply computes y = A ×₂ x ×₃ x, reusing the packed blocks. The output
// bits are reproducible: for a fixed Operator configuration (tensor, m,
// workers) the same x always yields the same y.
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
	op.exec.Contribute(op.packed.Blocks, b,
		func(i int) []float64 { return op.xp[i*b : (i+1)*b] },
		func(i int) []float64 { return op.yp[i*b : (i+1)*b] },
		stats)
	y := make([]float64, op.n)
	copy(y, op.yp)
	return y
}
