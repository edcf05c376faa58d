package sttsv

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/tensor"
)

// checkBlockLens validates the slice contract shared by all block kernels.
func checkBlockLens(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	if len(xI) != b || len(xJ) != b || len(xK) != b || len(yI) != b || len(yJ) != b || len(yK) != b {
		panic(fmt.Sprintf("sttsv: BlockContribute slice lengths (%d,%d,%d,%d,%d,%d), want %d",
			len(xI), len(xJ), len(xK), len(yI), len(yJ), len(yK), b))
	}
}

// BlockContributeScalar is the pure-scalar reference kernel: the direct
// i-j-k triple-loop transcription of Algorithm 5's local computation
// (lines 24–36). It is kept verbatim from the seed as the oracle the
// register-tiled kernels (BlockContribute) are tested against — it is
// bit-for-bit the seed behavior, while the tiled kernels reassociate
// sums (multi-accumulator dots, 4-wide fused updates) and so may differ
// from it by a few ulps.
//
// For a block with coordinates (I, J, K) the caller passes the three input
// row blocks x[I], x[J], x[K] and the three output row blocks y[I], y[J],
// y[K] (aliased slices when block coordinates coincide — the kernel only
// ever accumulates, so aliasing is safe). Every slice must have length
// blk.B. Zero padding is transparent: padded tensor entries are zero, so
// their contributions vanish.
func BlockContributeScalar(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64, stats *Stats) {
	checkBlockLens(blk, xI, xJ, xK, yI, yJ, yK)
	b := blk.B
	data := blk.Data
	switch blk.Kind {
	case tensor.OffDiagonal:
		// All elements are strict global triples i > j > k: each performs
		// 3 ternary multiplications (one per output row block).
		idx := 0
		for di := 0; di < b; di++ {
			xi := xI[di]
			acc := 0.0
			for dj := 0; dj < b; dj++ {
				xj := xJ[dj]
				s := 0.0
				txi2 := 2 * xi
				txij2 := 2 * xi * xj
				for dk := 0; dk < b; dk++ {
					v := data[idx]
					idx++
					s += v * xK[dk]
					yK[dk] += txij2 * v
				}
				acc += s * xj
				yJ[dj] += txi2 * s
			}
			yI[di] += 2 * acc
		}
	case tensor.DiagPairHigh:
		// I == J > K: local di >= dj; di > dj is a strict global triple,
		// di == dj is the i == j > k case of Algorithm 4.
		idx := 0
		for di := 0; di < b; di++ {
			xi := xI[di]
			for dj := 0; dj < di; dj++ {
				xj := xJ[dj]
				s := 0.0
				txij2 := 2 * xi * xj
				for dk := 0; dk < b; dk++ {
					v := data[idx]
					idx++
					s += v * xK[dk]
					yK[dk] += txij2 * v
				}
				yI[di] += 2 * s * xj
				yJ[dj] += 2 * s * xi
			}
			// di == dj.
			s := 0.0
			xi2 := xi * xi
			for dk := 0; dk < b; dk++ {
				v := data[idx]
				idx++
				s += v * xK[dk]
				yK[dk] += xi2 * v
			}
			yI[di] += 2 * s * xi
		}
	case tensor.DiagPairLow:
		// I > J == K: local dj >= dk; dj > dk strict, dj == dk is the
		// i > j == k case.
		idx := 0
		for di := 0; di < b; di++ {
			xi := xI[di]
			for dj := 0; dj < b; dj++ {
				xj := xJ[dj]
				txij2 := 2 * xi * xj
				s := 0.0
				for dk := 0; dk < dj; dk++ {
					v := data[idx]
					idx++
					s += v * xK[dk]
					yK[dk] += txij2 * v
				}
				v := data[idx]
				idx++
				yI[di] += 2*s*xj + v*xj*xj
				yJ[dj] += 2*s*xi + 2*v*xi*xj
			}
		}
	case tensor.Central:
		// I == J == K: full element-level classification.
		idx := 0
		for di := 0; di < b; di++ {
			xi := xI[di]
			for dj := 0; dj < di; dj++ {
				xj := xJ[dj]
				txij2 := 2 * xi * xj
				s := 0.0
				for dk := 0; dk < dj; dk++ {
					v := data[idx]
					idx++
					s += v * xK[dk]
					yK[dk] += txij2 * v
				}
				v := data[idx] // dk == dj: i > j == k
				idx++
				yI[di] += 2*s*xj + v*xj*xj
				yJ[dj] += 2*s*xi + 2*v*xi*xj
			}
			// dj == di row.
			xi2 := xi * xi
			s := 0.0
			for dk := 0; dk < di; dk++ {
				v := data[idx] // i == j > k
				idx++
				s += v * xK[dk]
				yK[dk] += xi2 * v
			}
			v := data[idx] // central element
			idx++
			yI[di] += 2*s*xi + v*xi2
		}
	default:
		panic("sttsv: unknown block kind")
	}
	stats.add(BlockTernaryCount(blk.Kind, b))
}

// BlockTernaryCount returns the exact number of ternary multiplications
// performed for one block of the given kind and edge b (§7.1): 3b³ for an
// off-diagonal block, 3b²(b−1)/2 + 2b² for a non-central diagonal block and
// 3·b(b−1)(b−2)/6 + 2b(b−1) + b for a central diagonal block.
func BlockTernaryCount(kind tensor.BlockKind, b int) int64 {
	bb := int64(b)
	switch kind {
	case tensor.OffDiagonal:
		return 3 * bb * bb * bb
	case tensor.DiagPairHigh, tensor.DiagPairLow:
		return 3*bb*bb*(bb-1)/2 + 2*bb*bb
	case tensor.Central:
		return 3*bb*(bb-1)*(bb-2)/6 + 2*bb*(bb-1) + bb
	}
	panic("sttsv: unknown block kind")
}

// Blocked computes y = A ×₂ x ×₃ x by partitioning the (zero-padded)
// tensor into an m×m×m grid of blocks and summing BlockContribute over the
// block lower tetrahedron. It validates the block kernels against Packed
// and is the sequential skeleton of Algorithm 5's local phase. Blocks are
// streamed through one scratch buffer (no per-block allocation); for
// repeated applications of the same tensor use Operator, which extracts
// all blocks once.
func Blocked(a *tensor.Symmetric, x []float64, m int, stats *Stats) []float64 {
	n := a.N
	if len(x) != n {
		panic(fmt.Sprintf("sttsv: vector length %d, tensor dimension %d", len(x), n))
	}
	if m < 1 {
		panic(fmt.Sprintf("sttsv: Blocked with m=%d", m))
	}
	b := intmath.CeilDiv(n, m)
	padded := m * b
	xp := make([]float64, padded)
	copy(xp, x)
	yp := make([]float64, padded)
	scratch := &tensor.Block{Data: make([]float64, 0, b*b*b)}
	tensor.BlocksOfTetrahedron(m, func(I, J, K int) {
		tensor.ExtractBlockInto(scratch, a, I, J, K, b)
		BlockContribute(scratch,
			xp[I*b:(I+1)*b], xp[J*b:(J+1)*b], xp[K*b:(K+1)*b],
			yp[I*b:(I+1)*b], yp[J*b:(J+1)*b], yp[K*b:(K+1)*b],
			stats)
	})
	return yp[:n]
}
