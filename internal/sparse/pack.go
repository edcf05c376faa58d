// Packed sparse blocks: the sparse analogue of tensor.BlockPacked. The
// tensor's stored nonzeros are counting-sorted into the same b×b×b
// lower-tetrahedral blocks the dense partition machinery assigns to ranks
// (block coordinates I >= J >= K, the four BlockKind shapes), and each
// block stores only its nonzeros, as sorted coordinate runs: parallel
// local (di, dj, dk) index arrays and a value array in ascending
// (di, dj, dk) order. Storage and kernel work are O(nnz) per block
// instead of O(b³), while the block-to-rank assignment, layout tables and
// exchange schedule of the dense session engine apply unchanged.
package sparse

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/tensor"
)

// Block holds the stored nonzeros of one b×b×b lower-tetrahedral block.
// Nonzero t sits at local coordinates (DI[t], DJ[t], DK[t]) with value
// Vals[t], sorted by (di, dj, dk) ascending — exactly the dense scalar
// kernel's element visit order restricted to the stored entries, which
// is what makes BlockApply bit-identical to sttsv.BlockContributeScalar
// on the expanded block. A run of equal (di, dj) is one row of that
// kernel.
type Block struct {
	Kind       tensor.BlockKind
	I, J, K    int // block coordinates, I >= J >= K
	B          int
	DI, DJ, DK []int32
	Vals       []float64
	// Ternary is the exact Algorithm-4 ternary-multiplication count over
	// the stored nonzeros (3 per strict triple, 2 per pairwise-equal, 1
	// per central element) — the sparse analogue of
	// sttsv.BlockTernaryCount.
	Ternary int64
}

// NNZ returns the number of stored nonzeros in the block.
func (blk *Block) NNZ() int { return len(blk.Vals) }

// Words returns the block's values in 8-byte words. The three int32
// coordinate arrays add another 1.5 words per nonzero.
func (blk *Block) Words() int { return len(blk.Vals) }

// entryTernary classifies one stored entry by its global index equality
// structure, mirroring the COO Apply multiplicity rules.
func entryTernary(i, j, k int) int64 {
	switch {
	case i > j && j > k:
		return 3
	case i == j && j > k:
		return 2
	case i > j && j == k:
		return 2
	default:
		return 1
	}
}

// Packed is a sparse tensor regrouped into per-block-coordinate sparse
// blocks, the unit the tetrahedral partition assigns to ranks. It is
// built in two passes over the tensor and then sliced per rank with
// Select — mirroring how tensor.PackBlocks extracts a rank's dense
// blocks from the full tensor.
type Packed struct {
	N int // logical dimension of the underlying tensor
	M int // row blocks: ceil(N / B)
	B int

	// slots holds the block at coordinates (I, J, K) at slot(I, J, K),
	// nil where no stored entry falls.
	slots  []*Block
	coords [][3]int // occupied block coordinates, sorted (I, J, K)
}

// slot returns block (i, j, k)'s offset in the packed lower tetrahedron
// of the block grid: tensor.PackedIndex without its argument check, so
// that it inlines into Pack's per-entry passes. Slot order is (I, J, K)
// lexicographic order.
func slot(i, j, k int) int { return i*(i+1)*(i+2)/6 + j*(j+1)/2 + k }

// countBlocks is the counting pass Pack and BlockCounts share. It
// returns the row-block count m, the row-block table (row[i] = i / b,
// so neither pass divides per entry) and each block slot's stored
// nonzeros and ternary multiplications. There are Tetrahedral(m) slots,
// no more than the partition's own block list when b is the
// partition's block edge.
func countBlocks(t *Tensor, b int) (m int, row []int32, nnz []int, tern []int64) {
	m = (t.N + b - 1) / b
	row = make([]int32, t.N)
	for i := range row {
		row[i] = int32(i / b)
	}
	nnz, tern = make([]int, intmath.Tetrahedral(m)), make([]int64, intmath.Tetrahedral(m))
	for x := range t.entries {
		e := &t.entries[x]
		s := slot(int(row[e.I]), int(row[e.J]), int(row[e.K]))
		nnz[s]++
		tern[s] += entryTernary(e.I, e.J, e.K)
	}
	return m, row, nnz, tern
}

// eachSlot visits the block coordinates I >= J >= K of m row blocks in
// slot order.
func eachSlot(m int, f func(s, i, j, k int)) {
	s := 0
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= j; k++ {
				f(s, i, j, k)
				s++
			}
		}
	}
}

// Pack groups the tensor's nonzeros into b×b×b sparse blocks by a
// two-pass counting sort. Every stored entry (i >= j >= k) lands in block
// (i/b, j/b, k/b) at local coordinates (i%b, j%b, k%b). The first pass
// counts each block's entries; the blocks then take consecutive,
// exact-size ranges of one backing array per field, in slot order; the
// second pass writes each entry at its block's cursor. The tensor's
// entries are sorted by (i, j, k), and within one block that is
// (di, dj, dk) order, so every block comes out sorted.
func Pack(t *Tensor, b int) (*Packed, error) {
	if b < 1 {
		return nil, fmt.Errorf("sparse: block edge %d, want >= 1", b)
	}
	m, row, next, tern := countBlocks(t, b) // next: each slot's cursor once counted
	p := &Packed{N: t.N, M: m, B: b, slots: make([]*Block, len(next))}
	nnz := len(t.entries)
	di, dj, dk := make([]int32, nnz), make([]int32, nnz), make([]int32, nnz)
	vals := make([]float64, nnz)
	off := 0
	eachSlot(m, func(s, i, j, k int) {
		if next[s] == 0 {
			return
		}
		end := off + next[s]
		p.slots[s] = &Block{
			Kind: blockKind(i, j, k), I: i, J: j, K: k, B: b,
			DI: di[off:end:end], DJ: dj[off:end:end], DK: dk[off:end:end], Vals: vals[off:end:end],
			Ternary: tern[s],
		}
		p.coords = append(p.coords, [3]int{i, j, k})
		next[s] = off
		off = end
	})
	for x := range t.entries {
		e := &t.entries[x]
		bi, bj, bk := int(row[e.I]), int(row[e.J]), int(row[e.K])
		s := slot(bi, bj, bk)
		at := next[s]
		next[s]++
		di[at], dj[at], dk[at] = int32(e.I-bi*b), int32(e.J-bj*b), int32(e.K-bk*b)
		vals[at] = e.V
	}
	return p, nil
}

func blockKind(bi, bj, bk int) tensor.BlockKind {
	switch {
	case bi == bj && bj == bk:
		return tensor.Central
	case bi == bj:
		return tensor.DiagPairHigh
	case bj == bk:
		return tensor.DiagPairLow
	default:
		return tensor.OffDiagonal
	}
}

// selectKindOrder mirrors tensor.PackBlocks's kind grouping so a rank's
// sparse blocks stream in the same kind-major order as its dense blocks.
var selectKindOrder = [...]tensor.BlockKind{
	tensor.OffDiagonal, tensor.DiagPairHigh, tensor.DiagPairLow, tensor.Central,
}

// Select returns the sparse blocks for the given block coordinates,
// grouped by kind (off-diagonal, diag-pair-high, diag-pair-low, central)
// with the caller's coordinate order preserved within each kind — the
// same streaming order tensor.PackBlocks produces. Coordinates with no
// stored entries are skipped: an empty block contributes nothing. So
// are coordinates past the tensor's last row block, which a partition
// padded beyond n lists.
func (p *Packed) Select(coords [][3]int) []*Block {
	var out []*Block
	for _, kind := range selectKindOrder {
		for _, c := range coords {
			i, j, k := c[0], c[1], c[2]
			if i >= p.M || i < j || j < k || k < 0 {
				continue
			}
			if blk := p.slots[slot(i, j, k)]; blk != nil && blk.Kind == kind {
				out = append(out, blk)
			}
		}
	}
	return out
}

// BlockCounts computes per-block nnz counts for block edge b with Pack's
// counting pass alone, without building the packed form — used to
// weight the partition before any rank blocks exist. Only occupied
// blocks appear in the map. Like Pack, it counts into one slot per
// block coordinate, Tetrahedral(⌈n/b⌉) of them, so b is meant to be a
// partition's block edge.
func BlockCounts(t *Tensor, b int) map[[3]int]int64 {
	m, _, nnz, _ := countBlocks(t, b)
	out := make(map[[3]int]int64)
	eachSlot(m, func(s, i, j, k int) {
		if nnz[s] > 0 {
			out[[3]int{i, j, k}] = int64(nnz[s])
		}
	})
	return out
}
