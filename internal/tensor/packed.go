package tensor

// BlockPacked holds a set of tetrahedral-partition blocks of one symmetric
// tensor, extracted once into a single contiguous backing buffer. Blocks
// are grouped by kind (all off-diagonal blocks first, then the two
// diagonal-pair kinds, then central), so a kernel sweeping Blocks in order
// runs each kernel shape over a contiguous region of memory — the layout
// the register-tiled kernels of internal/sttsv are written against.
//
// A BlockPacked is the unit of tensor reuse: repeated STTSV applications
// (power iterations, CP gradient sweeps, multi-vector MTTKRP) extract the
// blocks once and revisit the same buffer, instead of re-extracting from
// packed lower-tetrahedron storage on every application.
type BlockPacked struct {
	// B is the common block edge length.
	B int
	// Blocks views the shared buffer, kind-grouped in the order
	// OffDiagonal, DiagPairHigh, DiagPairLow, Central; the input coordinate
	// order is preserved within each kind.
	Blocks []*Block
	// Data is the shared backing buffer; every Blocks[i].Data aliases a
	// full-capacity sub-slice of it.
	Data []float64
}

// kindOrder is the grouping order of BlockPacked layouts.
var kindOrder = [...]BlockKind{OffDiagonal, DiagPairHigh, DiagPairLow, Central}

// PackBlocks extracts the listed blocks (coordinates I >= J >= K) of edge b
// into one contiguous kind-grouped buffer. Each block is filled with one
// copy per stored row out of a's packed storage (see fillBlock), so the
// cost is about one pass over the packed words plus zeroing the buffer. A
// nil tensor yields full-size, zero-valued blocks, which a kernel still
// runs over (pure communication measurements, mirroring parallel.Run).
func PackBlocks(a *Symmetric, coords [][3]int, b int) *BlockPacked {
	total := 0
	for _, c := range coords {
		total += BlockLen(KindOfBlock(c[0], c[1], c[2]), b)
	}
	bp := &BlockPacked{
		B:      b,
		Blocks: make([]*Block, 0, len(coords)),
		Data:   make([]float64, total),
	}
	off := 0
	for _, kind := range kindOrder {
		for _, c := range coords {
			if KindOfBlock(c[0], c[1], c[2]) != kind {
				continue
			}
			l := BlockLen(kind, b)
			blk := &Block{Kind: kind, I: c[0], J: c[1], K: c[2], B: b,
				Data: bp.Data[off : off+l : off+l]}
			if a != nil {
				fillBlock(blk, a)
			}
			off += l
			bp.Blocks = append(bp.Blocks, blk)
		}
	}
	return bp
}

// PackTetrahedron extracts every block of the m×m×m block tetrahedron —
// the full tensor, as used by the sequential blocked driver and the
// reusable Operator of internal/sttsv.
func PackTetrahedron(a *Symmetric, m, b int) *BlockPacked {
	coords := make([][3]int, 0, m*(m+1)*(m+2)/6)
	BlocksOfTetrahedron(m, func(I, J, K int) {
		coords = append(coords, [3]int{I, J, K})
	})
	return PackBlocks(a, coords, b)
}

// NumBlocks returns the number of packed blocks.
func (bp *BlockPacked) NumBlocks() int { return len(bp.Blocks) }

// Words returns the total packed storage in 8-byte words.
func (bp *BlockPacked) Words() int { return len(bp.Data) }
