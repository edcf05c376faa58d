package tensor

import (
	"math/rand"
	"testing"
)

// find returns the packed block with the given coordinates, or nil when
// the set does not contain it.
func find(bp *BlockPacked, I, J, K int) *Block {
	for _, blk := range bp.Blocks {
		if blk.I == I && blk.J == J && blk.K == K {
			return blk
		}
	}
	return nil
}

func TestPackTetrahedronMatchesExtractBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, c := range []struct{ n, m int }{{12, 4}, {10, 4}, {9, 3}, {5, 5}} {
		a := Random(c.n, rng)
		b := (c.n + c.m - 1) / c.m
		bp := PackTetrahedron(a, c.m, b)
		count := 0
		BlocksOfTetrahedron(c.m, func(I, J, K int) {
			count++
			got := find(bp, I, J, K)
			if got == nil {
				t.Fatalf("n=%d m=%d: block (%d,%d,%d) missing", c.n, c.m, I, J, K)
			}
			want := ExtractBlock(a, I, J, K, b)
			if got.Kind != want.Kind || got.B != want.B || len(got.Data) != len(want.Data) {
				t.Fatalf("block (%d,%d,%d): shape mismatch", I, J, K)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("block (%d,%d,%d): Data[%d] = %g want %g", I, J, K, i, got.Data[i], want.Data[i])
				}
			}
		})
		if bp.NumBlocks() != count {
			t.Fatalf("NumBlocks %d want %d", bp.NumBlocks(), count)
		}
	}
}

func TestPackBlocksKindGroupedContiguous(t *testing.T) {
	a := Random(12, rand.New(rand.NewSource(61)))
	bp := PackTetrahedron(a, 4, 3)
	// Kind groups must be monotone in kindOrder position...
	pos := map[BlockKind]int{OffDiagonal: 0, DiagPairHigh: 1, DiagPairLow: 2, Central: 3}
	last := -1
	total := 0
	for i, blk := range bp.Blocks {
		if p := pos[blk.Kind]; p < last {
			t.Fatalf("block %d kind %v out of group order", i, blk.Kind)
		} else {
			last = p
		}
		// ...and every block must view the shared buffer contiguously.
		if &blk.Data[0] != &bp.Data[total] {
			t.Fatalf("block %d not contiguous at offset %d", i, total)
		}
		total += len(blk.Data)
	}
	if total != bp.Words() {
		t.Fatalf("total %d want %d", total, bp.Words())
	}
}

func TestPackBlocksNilTensorAndSubset(t *testing.T) {
	coords := [][3]int{{3, 2, 1}, {2, 2, 1}, {1, 1, 1}}
	bp := PackBlocks(nil, coords, 4)
	if bp.NumBlocks() != 3 {
		t.Fatalf("NumBlocks %d", bp.NumBlocks())
	}
	for _, v := range bp.Data {
		if v != 0 {
			t.Fatal("nil tensor produced nonzero block data")
		}
	}
	if find(bp, 3, 2, 1) == nil || find(bp, 0, 0, 0) != nil {
		t.Fatal("At lookup wrong for subset")
	}
}

func TestExtractBlockIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := Random(12, rng)
	b := 3
	scratch := &Block{Data: make([]float64, 0, b*b*b)}
	BlocksOfTetrahedron(4, func(I, J, K int) {
		got := ExtractBlockInto(scratch, a, I, J, K, b)
		if got != scratch {
			t.Fatal("ExtractBlockInto did not return its scratch argument")
		}
		want := ExtractBlock(a, I, J, K, b)
		if got.Kind != want.Kind || len(got.Data) != len(want.Data) {
			t.Fatalf("block (%d,%d,%d): shape mismatch", I, J, K)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("block (%d,%d,%d): Data[%d] = %g want %g", I, J, K, i, got.Data[i], want.Data[i])
			}
		}
	})
	// The scratch buffer must have been reused, not reallocated, once at
	// full capacity.
	if allocs := testing.AllocsPerRun(5, func() {
		ExtractBlockInto(scratch, a, 3, 2, 1, b)
	}); allocs != 0 {
		t.Fatalf("ExtractBlockInto allocates %.0f per call on a warm scratch", allocs)
	}
}

func TestExtractBlockIntoPadding(t *testing.T) {
	// Dirty scratch + padding region: stale values must be overwritten
	// with zeros.
	a := Random(10, rand.New(rand.NewSource(63)))
	b := 3 // m=4 ⇒ padded dimension 12, blocks at the edge are padded
	scratch := &Block{Data: make([]float64, 0, b*b*b)}
	ExtractBlockInto(scratch, a, 3, 2, 1, b) // fills scratch with nonzero data
	got := ExtractBlockInto(scratch, a, 3, 3, 3, b)
	want := ExtractBlock(a, 3, 3, 3, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("padded block Data[%d] = %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}
