package tensor

import (
	"fmt"

	"repro/internal/intmath"
)

// BlockKind classifies a b×b×b block of the lower tetrahedron by its block
// coordinates (I, J, K) with I >= J >= K, following §6 of the paper.
type BlockKind int

const (
	// OffDiagonal means I > J > K: every element of the block is a strict
	// lower-tetrahedron entry, so all b³ values are stored.
	OffDiagonal BlockKind = iota
	// DiagPairHigh means I == J > K (a non-central diagonal block of type
	// (a, a, c)): stored entries have local di >= dj and free dk, i.e.
	// b²(b+1)/2 values.
	DiagPairHigh
	// DiagPairLow means I > J == K (type (a, c, c)): stored entries have
	// free di and dj >= dk, again b²(b+1)/2 values.
	DiagPairLow
	// Central means I == J == K: stored entries have di >= dj >= dk,
	// b(b+1)(b+2)/6 values.
	Central
)

func (k BlockKind) String() string {
	switch k {
	case OffDiagonal:
		return "off-diagonal"
	case DiagPairHigh:
		return "diag-pair-high"
	case DiagPairLow:
		return "diag-pair-low"
	case Central:
		return "central"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// KindOfBlock classifies block coordinates I >= J >= K.
func KindOfBlock(I, J, K int) BlockKind {
	switch intmath.ClassifyTriple(I, J, K) {
	case intmath.TripleStrict:
		return OffDiagonal
	case intmath.TriplePairHigh:
		return DiagPairHigh
	case intmath.TriplePairLow:
		return DiagPairLow
	default:
		return Central
	}
}

// BlockLen returns the number of stored values for a block of the given
// kind and edge length b. These are the per-block storage counts of
// §6.1.3: b³, b²(b+1)/2 and b(b+1)(b+2)/6.
func BlockLen(kind BlockKind, b int) int {
	switch kind {
	case OffDiagonal:
		return b * b * b
	case DiagPairHigh, DiagPairLow:
		return b * b * (b + 1) / 2
	case Central:
		return intmath.Tetrahedral(b)
	}
	panic("tensor: unknown block kind")
}

// Block is the packed storage for one lower-tetrahedron block of a
// symmetric tensor in the tetrahedral block partition. Local indices
// (di, dj, dk) run over [0, b) with the kind-specific ordering constraint;
// the global tensor indices are (I·b+di, J·b+dj, K·b+dk).
type Block struct {
	Kind    BlockKind
	I, J, K int // block coordinates, I >= J >= K
	B       int // block edge length
	Data    []float64
}

// NewBlock allocates a zero block.
func NewBlock(I, J, K, b int) *Block {
	kind := KindOfBlock(I, J, K)
	return &Block{Kind: kind, I: I, J: J, K: K, B: b, Data: make([]float64, BlockLen(kind, b))}
}

// offset maps valid local indices to the packed offset.
func (blk *Block) offset(di, dj, dk int) int {
	b := blk.B
	switch blk.Kind {
	case OffDiagonal:
		return (di*b+dj)*b + dk
	case DiagPairHigh:
		if di < dj {
			panic(fmt.Sprintf("tensor: block %v local (%d,%d,%d) needs di >= dj", blk.Kind, di, dj, dk))
		}
		return (di*(di+1)/2+dj)*b + dk
	case DiagPairLow:
		if dj < dk {
			panic(fmt.Sprintf("tensor: block %v local (%d,%d,%d) needs dj >= dk", blk.Kind, di, dj, dk))
		}
		return di*(b*(b+1)/2) + dj*(dj+1)/2 + dk
	case Central:
		if di < dj || dj < dk {
			panic(fmt.Sprintf("tensor: block %v local (%d,%d,%d) needs di >= dj >= dk", blk.Kind, di, dj, dk))
		}
		return di*(di+1)*(di+2)/6 + dj*(dj+1)/2 + dk
	}
	panic("tensor: unknown block kind")
}

// At returns the stored value at valid local indices.
func (blk *Block) At(di, dj, dk int) float64 { return blk.Data[blk.offset(di, dj, dk)] }

// Set writes the stored value at valid local indices.
func (blk *Block) Set(di, dj, dk int, v float64) { blk.Data[blk.offset(di, dj, dk)] = v }

// ForEach visits every stored entry in packed order with its local indices.
func (blk *Block) ForEach(f func(di, dj, dk int, v float64)) {
	b := blk.B
	idx := 0
	switch blk.Kind {
	case OffDiagonal:
		for di := 0; di < b; di++ {
			for dj := 0; dj < b; dj++ {
				for dk := 0; dk < b; dk++ {
					f(di, dj, dk, blk.Data[idx])
					idx++
				}
			}
		}
	case DiagPairHigh:
		for di := 0; di < b; di++ {
			for dj := 0; dj <= di; dj++ {
				for dk := 0; dk < b; dk++ {
					f(di, dj, dk, blk.Data[idx])
					idx++
				}
			}
		}
	case DiagPairLow:
		for di := 0; di < b; di++ {
			for dj := 0; dj < b; dj++ {
				for dk := 0; dk <= dj; dk++ {
					f(di, dj, dk, blk.Data[idx])
					idx++
				}
			}
		}
	case Central:
		for di := 0; di < b; di++ {
			for dj := 0; dj <= di; dj++ {
				for dk := 0; dk <= dj; dk++ {
					f(di, dj, dk, blk.Data[idx])
					idx++
				}
			}
		}
	}
}

// GlobalIndices translates local indices to global tensor indices.
func (blk *Block) GlobalIndices(di, dj, dk int) (i, j, k int) {
	return blk.I*blk.B + di, blk.J*blk.B + dj, blk.K*blk.B + dk
}

// fillBlock overwrites every stored entry of blk with the corresponding
// value of t (zero where the global indices fall in the padding region),
// one contiguous copy per stored (di, dj) row. The stored entries of any
// valid block are sorted global triples — the block coordinates satisfy
// I >= J >= K and the kind-specific local ordering keeps i >= j >= k —
// and k is the packed layout's fastest index, so a row's dk run is one
// run of t.Data: b long when K < J, dj+1 long when J == K. Sortedness
// also means a row is padding exactly when i >= t.N, and every later row
// of the block is then padding too.
func fillBlock(blk *Block, t *Symmetric) {
	b := blk.B
	pairIJ := blk.Kind == DiagPairHigh || blk.Kind == Central // dj <= di
	pairJK := blk.Kind == DiagPairLow || blk.Kind == Central  // dk <= dj
	k0 := blk.K * b
	idx := 0
	for di := 0; di < b; di++ {
		i := blk.I*b + di
		if i >= t.N {
			clear(blk.Data[idx:])
			return
		}
		rows := b
		if pairIJ {
			rows = di + 1
		}
		for dj := 0; dj < rows; dj++ {
			l := b
			if pairJK {
				l = dj + 1
			}
			p := PackedIndex(i, blk.J*b+dj, k0)
			copy(blk.Data[idx:idx+l], t.Data[p:p+l])
			idx += l
		}
	}
}

// ExtractBlock copies block (I, J, K) of edge b out of a packed symmetric
// tensor. Global indices at or beyond t.N (the zero padding of §6.1 when
// q²+1 does not divide n) read as zero.
func ExtractBlock(t *Symmetric, I, J, K, b int) *Block {
	blk := NewBlock(I, J, K, b)
	fillBlock(blk, t)
	return blk
}

// ExtractBlockInto refills blk in place as block (I, J, K) of edge b of t,
// reusing blk.Data when its capacity suffices. It lets streaming callers
// (sttsv.Blocked) visit every block of the tetrahedron with one scratch
// buffer instead of one allocation per block. Returns blk.
func ExtractBlockInto(blk *Block, t *Symmetric, I, J, K, b int) *Block {
	kind := KindOfBlock(I, J, K)
	l := BlockLen(kind, b)
	if cap(blk.Data) < l {
		blk.Data = make([]float64, l, b*b*b) // b³ fits any kind at this edge
	} else {
		blk.Data = blk.Data[:l]
	}
	blk.Kind, blk.I, blk.J, blk.K, blk.B = kind, I, J, K, b
	fillBlock(blk, t)
	return blk
}

// BlocksOfTetrahedron enumerates the block coordinates (I >= J >= K) of the
// lower tetrahedron of an m×m×m grid of blocks, in packed order. It is the
// block-level analogue of Symmetric.ForEach.
func BlocksOfTetrahedron(m int, f func(I, J, K int)) {
	for I := 0; I < m; I++ {
		for J := 0; J <= I; J++ {
			for K := 0; K <= J; K++ {
				f(I, J, K)
			}
		}
	}
}
