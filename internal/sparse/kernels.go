// Sparse block kernels: BlockApply is the sparse analogue of
// sttsv.BlockContributeScalar. It visits only the stored nonzeros but
// reproduces the scalar kernel's association order exactly — (di, dj)
// runs in ascending order, dk ascending within a run, the same fused
// update expressions per Algorithm-4 multiplicity case. Skipping a zero
// element is bitwise neutral for finite inputs: a zero tensor entry
// contributes ±0.0 to every accumulator it touches, the kernel's
// accumulators are never -0.0 (they start at +0.0 and IEEE-754
// round-to-nearest addition never produces -0.0 from a +0.0 start), and
// adding ±0.0 to a finite non-(-0.0) float is the identity. BlockApply
// on a sparse block is therefore bit-for-bit BlockContributeScalar on
// the dense expansion of the same block — the property the parallel
// conformance grid pins against a dense scalar-kernel session.
package sparse

import (
	"fmt"
	"math"

	"repro/internal/sttsv"
	"repro/internal/tensor"
)

func checkBlockLens(blk *Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	if len(xI) != b || len(xJ) != b || len(xK) != b || len(yI) != b || len(yJ) != b || len(yK) != b {
		panic(fmt.Sprintf("sparse: BlockApply slice lengths (%d,%d,%d,%d,%d,%d), want %d",
			len(xI), len(xJ), len(xK), len(yI), len(yJ), len(yK), b))
	}
}

// BlockApply accumulates one sparse block's contribution into the three
// output row blocks, in O(nnz) work. Slice contract is identical to
// sttsv.BlockContributeScalar: xI/xJ/xK and yI/yJ/yK are the length-b
// row blocks for the block's I, J, K coordinates (aliased when they
// coincide; the kernel only accumulates, so aliasing is safe). A (di, dj)
// run ends where the next nonzero's (di, dj) differs from its own, and
// each run is folded exactly as the scalar kernel folds that row.
//
// No branch on the per-nonzero path follows the tensor's group sizes,
// which in a hypergraph are short and patternless: run ends test dj
// first (within a di group dj ascends, so that test fails at almost
// every run end and predicts well), and the off-diagonal kind carries
// its per-di accumulator across group ends with bit masks instead of a
// loop per di.
func BlockApply(blk *Block, xI, xJ, xK, yI, yJ, yK []float64, stats *sttsv.Stats) {
	checkBlockLens(blk, xI, xJ, xK, yI, yJ, yK)
	vals := blk.Vals
	n := len(vals)
	dis, djs, dks := blk.DI[:n], blk.DJ[:n], blk.DK[:n]
	switch blk.Kind {
	case tensor.OffDiagonal:
		// Every element is a strict global triple i > j > k, and yI is
		// disjoint from yJ and yK. The scalar kernel ends each di row
		// with yI[di] += 2·acc over the row's per-dj terms; here every
		// run stores base + 2·acc, where base is yI[di] as the group
		// found it, so a group's last store is that same sum. Between
		// runs, same is all ones while the next run shares di and zero
		// at a group end, where acc becomes +0.0 (as acc := 0.0 does,
		// whatever acc held) and base the next group's yI, loaded
		// before this run's store.
		if n == 0 {
			break
		}
		base, acc := yI[dis[0]], 0.0
		for t := 0; t < n; {
			di, dj := dis[t], djs[t]
			end := runEnd(dis, djs, t)
			xi, xj := xI[di], xJ[dj]
			s := 0.0
			txij2 := 2 * xi * xj
			for ; t < end; t++ {
				v := vals[t]
				k := dks[t]
				s += v * xK[k]
				yK[k] += txij2 * v
			}
			yJ[dj] += 2 * xi * s
			acc += s * xj
			ndi := dis[min(end, n-1)]
			next := yI[ndi]
			yI[di] = base + 2*acc
			same := eqMask(ndi, di)
			acc = math.Float64frombits(math.Float64bits(acc) & same)
			base = math.Float64frombits(math.Float64bits(base)&same | math.Float64bits(next)&^same)
		}
	case tensor.DiagPairHigh:
		// I == J > K: di > dj is a strict triple, di == dj is i == j > k.
		for t := 0; t < n; {
			di, dj := dis[t], djs[t]
			end := runEnd(dis, djs, t)
			xi := xI[di]
			s := 0.0
			if di > dj {
				xj := xJ[dj]
				txij2 := 2 * xi * xj
				for ; t < end; t++ {
					v := vals[t]
					k := dks[t]
					s += v * xK[k]
					yK[k] += txij2 * v
				}
				yI[di] += 2 * s * xj
				yJ[dj] += 2 * s * xi
			} else {
				xi2 := xi * xi
				for ; t < end; t++ {
					v := vals[t]
					k := dks[t]
					s += v * xK[k]
					yK[k] += xi2 * v
				}
				yI[di] += 2 * s * xi
			}
		}
	case tensor.DiagPairLow, tensor.Central:
		// A DiagPairLow block (I > J == K) and a central block's di > dj
		// rows are both i > j, with dk <= dj: the dk == dj diagonal
		// element (sorted last in its run when stored) folds into the
		// dense kernel's fused row updates, so it is split off the
		// s-loop and substituted — 0.0 when absent, which leaves the
		// fused expressions bitwise unchanged. A central block's
		// di == dj rows split off dk == di the same way.
		low := blk.Kind == tensor.DiagPairLow
		for t := 0; t < n; {
			di, dj := dis[t], djs[t]
			end := runEnd(dis, djs, t)
			last, vd := end, 0.0
			if dks[end-1] == dj {
				last--
				vd = vals[last]
			}
			xi := xI[di]
			s := 0.0
			if low || di > dj {
				xj := xJ[dj]
				txij2 := 2 * xi * xj
				for ; t < last; t++ {
					v := vals[t]
					k := dks[t]
					s += v * xK[k]
					yK[k] += txij2 * v
				}
				yI[di] += 2*s*xj + vd*xj*xj
				yJ[dj] += 2*s*xi + 2*vd*xi*xj
			} else {
				xi2 := xi * xi
				for ; t < last; t++ {
					v := vals[t]
					k := dks[t]
					s += v * xK[k]
					yK[k] += xi2 * v
				}
				yI[di] += 2*s*xi + vd*xi2
			}
			t = end
		}
	default:
		panic("sparse: unknown block kind")
	}
	if stats != nil {
		stats.TernaryMults += blk.Ternary
	}
}

// runEnd returns the end of the (di, dj) run that starts at nonzero t:
// the first later nonzero whose (di, dj) differs from t's. It tests dj
// first: a run rarely continues, and a dj that matches the run's own
// almost always means it does, while the next di matches about as often
// as not.
func runEnd(dis, djs []int32, t int) int {
	di, dj := dis[t], djs[t]
	end := t + 1
	for end < len(dis) && djs[end] == dj && dis[end] == di {
		end++
	}
	return end
}

// eqMask returns all ones when a == b and zero otherwise, without a
// branch. Both are non-negative, so a^b-1 is negative only when they
// are equal.
func eqMask(a, b int32) uint64 {
	return uint64((int64(a^b) - 1) >> 63)
}

// Contribute applies a block list against padded row-major vectors:
// x and y hold m·b words with row block i at [i·b, (i+1)·b). Blocks are
// applied sequentially in input order — the sequential oracle the
// parallel sparse session is conformance-tested against.
func Contribute(blocks []*Block, b int, x, y []float64, stats *sttsv.Stats) {
	row := func(buf []float64, i int) []float64 { return buf[i*b : (i+1)*b] }
	for _, blk := range blocks {
		BlockApply(blk,
			row(x, blk.I), row(x, blk.J), row(x, blk.K),
			row(y, blk.I), row(y, blk.J), row(y, blk.K), stats)
	}
}

// ApplyPacked computes y = A ×₂ x ×₃ x through the packed blocks (all
// blocks, sequential coordinate order grouped by kind), returning a
// length-N result. It must agree exactly with the COO Apply on ternary
// counts and with the dense scalar block path on bits.
func (p *Packed) ApplyPacked(x []float64, stats *sttsv.Stats) []float64 {
	if len(x) != p.N {
		panic(fmt.Sprintf("sparse: vector length %d, dimension %d", len(x), p.N))
	}
	padded := p.M * p.B
	xp := make([]float64, padded)
	copy(xp, x)
	yp := make([]float64, padded)
	Contribute(p.Select(p.coords), p.B, xp, yp, stats)
	return yp[:p.N]
}
