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
	"runtime"
	"sync"

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
func entryTernary(i, j, k int32) int64 {
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

// minPackChunk is the fewest entries one goroutine of Pack's passes
// takes: on fewer, starting and joining it costs more than it saves.
const minPackChunk = 1 << 15

// packChunks returns how many contiguous entry ranges Pack's passes
// split nnz entries into: GOMAXPROCS, fewer if a range would hold under
// minPackChunk entries or under one entry per block slot (each range
// counts into its own slot array).
func packChunks(nnz, slots int) int {
	return max(1, min(runtime.GOMAXPROCS(0), nnz/max(minPackChunk, slots)))
}

// eachChunk calls f(c, lo, hi) for the chunks contiguous ranges
// [lo, hi) of nnz entries, chunk 0 on the calling goroutine and every
// other chunk on its own, and returns once every call has.
func eachChunk(nnz, chunks int, f func(c, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func() {
			defer wg.Done()
			f(c, c*nnz/chunks, (c+1)*nnz/chunks)
		}()
	}
	f(0, 0, nnz/chunks)
	wg.Wait()
}

// slotCounts holds the counting pass Pack and BlockCounts share: each
// chunk's tally of every block slot's stored nonzeros and ternary
// multiplications. Chunk c's tally of slot s sits at c·stride + s; the
// stride leaves a cache line between two chunks' tallies, so no two
// counting goroutines write one line.
type slotCounts struct {
	m      int // row blocks: ⌈n/b⌉
	slots  int // Tetrahedral(m)
	chunks int
	stride int
	row    []int32 // row-block table, row[i] = i / b, so neither pass divides per entry
	nnz    []int
	tern   []int64
}

// countSlots counts the sorted entries in `chunks` contiguous ranges
// (packChunks' number when chunks is 0), each in its own goroutine.
// There is one slot per block coordinate I >= J >= K of the m row
// blocks, no more than the partition's own block list when b is the
// partition's block edge.
func countSlots(t *Tensor, b, chunks int) *slotCounts {
	m := (t.N + b - 1) / b
	slots := intmath.Tetrahedral(m)
	if chunks == 0 {
		chunks = packChunks(len(t.entries), slots)
	}
	stride := slots + 8
	row := make([]int32, t.N)
	for i := range row {
		row[i] = int32(i / b)
	}
	sc := &slotCounts{m: m, slots: slots, chunks: chunks, stride: stride, row: row,
		nnz: make([]int, chunks*stride), tern: make([]int64, chunks*stride)}
	eachChunk(len(t.entries), chunks, func(c, lo, hi int) {
		nnz, tern := sc.nnz[c*stride:][:slots], sc.tern[c*stride:][:slots]
		for _, e := range t.entries[lo:hi] {
			s := slot(int(row[e.I]), int(row[e.J]), int(row[e.K]))
			nnz[s]++
			tern[s] += entryTernary(e.I, e.J, e.K)
		}
	})
	return sc
}

// total returns slot s's nonzeros and ternary multiplications over all
// chunks.
func (sc *slotCounts) total(s int) (nnz int, tern int64) {
	for c := 0; c < sc.chunks; c++ {
		nnz += sc.nnz[c*sc.stride+s]
		tern += sc.tern[c*sc.stride+s]
	}
	return nnz, tern
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
//
// Both passes split the entries into contiguous chunks, one goroutine
// each (packChunks). Chunk c of a block takes the sub-range of the
// block's range after chunks 0..c−1 and fills it in entry order, so the
// chunks lay every block out exactly as one sequential pass would: the
// packed form does not depend on the chunk count.
func Pack(t *Tensor, b int) (*Packed, error) {
	if b < 1 {
		return nil, fmt.Errorf("sparse: block edge %d, want >= 1", b)
	}
	return pack(t, b, 0), nil
}

// pack is Pack over the given number of chunks, or packChunks' number
// when chunks is 0.
func pack(t *Tensor, b, chunks int) *Packed {
	sc := countSlots(t, b, chunks)
	p := &Packed{N: t.N, M: sc.m, B: b, slots: make([]*Block, sc.slots)}
	occupied := 0
	for s := range p.slots {
		if nnz, _ := sc.total(s); nnz > 0 {
			occupied++
		}
	}
	blocks := make([]Block, 0, occupied)
	p.coords = make([][3]int, 0, occupied)
	nnz := len(t.entries)
	di, dj, dk := make([]int32, nnz), make([]int32, nnz), make([]int32, nnz)
	vals := make([]float64, nnz)
	off := 0
	// Turn each chunk's counts into its cursors (sc.nnz from here on).
	eachSlot(sc.m, func(s, i, j, k int) {
		total, tern := sc.total(s)
		if total == 0 {
			return
		}
		end := off + total
		blocks = append(blocks, Block{
			Kind: blockKind(i, j, k), I: i, J: j, K: k, B: b,
			DI: di[off:end:end], DJ: dj[off:end:end], DK: dk[off:end:end], Vals: vals[off:end:end],
			Ternary: tern,
		})
		p.slots[s] = &blocks[len(blocks)-1]
		p.coords = append(p.coords, [3]int{i, j, k})
		for c := 0; c < sc.chunks; c++ {
			at := &sc.nnz[c*sc.stride+s]
			*at, off = off, off+*at
		}
	})
	row, b32 := sc.row, int32(b)
	eachChunk(nnz, sc.chunks, func(c, lo, hi int) {
		next := sc.nnz[c*sc.stride:][:sc.slots]
		for _, e := range t.entries[lo:hi] {
			bi, bj, bk := row[e.I], row[e.J], row[e.K]
			s := slot(int(bi), int(bj), int(bk))
			at := next[s]
			next[s]++
			di[at], dj[at], dk[at] = e.I-bi*b32, e.J-bj*b32, e.K-bk*b32
			vals[at] = e.V
		}
	})
	return p
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
	sc := countSlots(t, b, 0)
	out := make(map[[3]int]int64)
	eachSlot(sc.m, func(s, i, j, k int) {
		if nnz, _ := sc.total(s); nnz > 0 {
			out[[3]int{i, j, k}] = int64(nnz)
		}
	})
	return out
}
