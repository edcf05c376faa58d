package sttsv

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Per-kind kernel benchmarks: scalar reference vs register-tiled production
// kernel at a sweep of block edges. Flop accounting uses the paper's §3 cost
// unit — one ternary multiplication a_ijk·x_j·x_k contributing to an output
// row — reported via ReportMetric as ns/ternary so the regression harness
// (cmd/sttsvbench) can derive GFLOP/s.

type kernelFn func(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64, stats *Stats)

func benchKernel(b *testing.B, I, J, K int, fn kernelFn) {
	for _, edge := range []int{8, 16, 24, 32, 64} {
		b.Run(fmt.Sprintf("b=%d", edge), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			blk := tensor.NewBlock(I, J, K, edge)
			for i := range blk.Data {
				blk.Data[i] = rng.NormFloat64()
			}
			x := randVec(edge, rng)
			y := make([]float64, edge)
			ternary := BlockTernaryCount(blk.Kind, edge)
			b.SetBytes(int64(8 * len(blk.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(blk, x, x, x, y, y, y, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ternary), "ns/ternary")
		})
	}
}

func BenchmarkBlockContributeOffDiagonal(b *testing.B) {
	b.Run("tiled", func(b *testing.B) { benchKernel(b, 3, 2, 1, BlockContribute) })
	b.Run("scalar", func(b *testing.B) { benchKernel(b, 3, 2, 1, BlockContributeScalar) })
}

func BenchmarkBlockContributeDiagPairHigh(b *testing.B) {
	b.Run("tiled", func(b *testing.B) { benchKernel(b, 2, 2, 1, BlockContribute) })
	b.Run("scalar", func(b *testing.B) { benchKernel(b, 2, 2, 1, BlockContributeScalar) })
}

func BenchmarkBlockContributeDiagPairLow(b *testing.B) {
	b.Run("tiled", func(b *testing.B) { benchKernel(b, 2, 1, 1, BlockContribute) })
	b.Run("scalar", func(b *testing.B) { benchKernel(b, 2, 1, 1, BlockContributeScalar) })
}

func BenchmarkBlockContributeCentral(b *testing.B) {
	b.Run("tiled", func(b *testing.B) { benchKernel(b, 1, 1, 1, BlockContribute) })
	b.Run("scalar", func(b *testing.B) { benchKernel(b, 1, 1, 1, BlockContributeScalar) })
}

// BenchmarkLocalPhase measures one rank-local STTSV application — the
// compute phase the paper's communication lower bound trades against —
// through the packed-operator path, scalar kernel against tiled: the
// paper's (q=3 ⇒ m=10) grid at a small edge, perfbench power's shape
// (q=2 ⇒ m=6, b=24), a cache-resident b=32 shape (m=4 ⇒ ~2.9 MB packed,
// where the kernel speedup is visible), and the large streamed m=10,
// b=32 shape (~44 MB packed, DRAM-bandwidth-bound).
func BenchmarkLocalPhase(b *testing.B) {
	for _, shape := range []struct{ m, edge int }{{10, 8}, {6, 24}, {4, 32}, {10, 32}} {
		n := shape.m * shape.edge
		rng := rand.New(rand.NewSource(9))
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		ternary := PackedTernaryCount(n)
		op := NewOperator(a, shape.m)
		b.Run(fmt.Sprintf("m=%d/b=%d/scalar", shape.m, shape.edge), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scalarApply(op, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ternary), "ns/ternary")
		})
		b.Run(fmt.Sprintf("m=%d/b=%d/tiled", shape.m, shape.edge), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.Apply(x, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ternary), "ns/ternary")
		})
	}
}

// scalarApply runs the packed blocks through the seed scalar kernel
// sequentially — the baseline the tiled speedup is quoted against.
func scalarApply(op *Operator, x []float64) []float64 {
	n, m, b := op.N(), op.M(), op.B()
	xp := make([]float64, m*b)
	copy(xp, x[:n])
	yp := make([]float64, m*b)
	for _, blk := range op.Packed().Blocks {
		I, J, K := blk.I, blk.J, blk.K
		BlockContributeScalar(blk,
			xp[I*b:(I+1)*b], xp[J*b:(J+1)*b], xp[K*b:(K+1)*b],
			yp[I*b:(I+1)*b], yp[J*b:(J+1)*b], yp[K*b:(K+1)*b], nil)
	}
	return yp[:n]
}
