package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/intmath"
)

func TestKindOfBlock(t *testing.T) {
	cases := []struct {
		I, J, K int
		want    BlockKind
	}{
		{3, 2, 1, OffDiagonal},
		{2, 2, 1, DiagPairHigh},
		{2, 1, 1, DiagPairLow},
		{2, 2, 2, Central},
	}
	for _, c := range cases {
		if got := KindOfBlock(c.I, c.J, c.K); got != c.want {
			t.Errorf("KindOfBlock(%d,%d,%d) = %v, want %v", c.I, c.J, c.K, got, c.want)
		}
	}
}

func TestBlockLen(t *testing.T) {
	for b := 1; b <= 8; b++ {
		if got := BlockLen(OffDiagonal, b); got != b*b*b {
			t.Errorf("OffDiagonal b=%d: %d", b, got)
		}
		if got := BlockLen(DiagPairHigh, b); got != b*b*(b+1)/2 {
			t.Errorf("DiagPairHigh b=%d: %d", b, got)
		}
		if got := BlockLen(DiagPairLow, b); got != b*b*(b+1)/2 {
			t.Errorf("DiagPairLow b=%d: %d", b, got)
		}
		if got := BlockLen(Central, b); got != intmath.Tetrahedral(b) {
			t.Errorf("Central b=%d: %d", b, got)
		}
	}
}

func TestBlockOffsetBijective(t *testing.T) {
	// ForEach must visit offsets 0..len-1 in order, and offset() must
	// agree with the iteration order, for every kind.
	for _, coords := range [][3]int{{3, 2, 1}, {2, 2, 1}, {2, 1, 1}, {1, 1, 1}} {
		for b := 1; b <= 5; b++ {
			blk := NewBlock(coords[0], coords[1], coords[2], b)
			next := 0
			blk.ForEach(func(di, dj, dk int, _ float64) {
				if got := blk.offset(di, dj, dk); got != next {
					t.Fatalf("%v b=%d: offset(%d,%d,%d) = %d, want %d",
						blk.Kind, b, di, dj, dk, got, next)
				}
				next++
			})
			if next != len(blk.Data) {
				t.Fatalf("%v b=%d: visited %d of %d", blk.Kind, b, next, len(blk.Data))
			}
		}
	}
}

func TestBlockSetAt(t *testing.T) {
	blk := NewBlock(2, 2, 0, 3) // DiagPairHigh
	blk.Set(2, 1, 0, 7)
	if blk.At(2, 1, 0) != 7 {
		t.Fatal("Set/At disagree")
	}
}

func TestBlockOffsetPanicsOnInvalidLocal(t *testing.T) {
	cases := []struct {
		coords  [3]int
		d       [3]int
		mustErr bool
	}{
		{[3]int{2, 2, 1}, [3]int{0, 1, 0}, true},  // DiagPairHigh needs di >= dj
		{[3]int{2, 1, 1}, [3]int{0, 0, 1}, true},  // DiagPairLow needs dj >= dk
		{[3]int{1, 1, 1}, [3]int{0, 1, 0}, true},  // Central needs sorted
		{[3]int{3, 2, 1}, [3]int{0, 1, 2}, false}, // OffDiagonal free
	}
	for _, c := range cases {
		blk := NewBlock(c.coords[0], c.coords[1], c.coords[2], 3)
		func() {
			defer func() {
				if r := recover(); (r != nil) != c.mustErr {
					t.Errorf("block %v local %v: panic=%v, want %v", c.coords, c.d, r != nil, c.mustErr)
				}
			}()
			blk.At(c.d[0], c.d[1], c.d[2])
		}()
	}
}

// TestExtractBlockMatchesGlobal checks every stored entry of every block
// against the a.At oracle, through both ExtractBlock and ExtractBlockInto
// on a NaN-poisoned scratch, so padding must be written, not inherited
// from a fresh allocation. The shapes cover n % b != 0 (padded rows in
// every kind, down to a last central block cut at n) and b = 1.
func TestExtractBlockMatchesGlobal(t *testing.T) {
	for _, c := range []struct{ n, b int }{{12, 3}, {10, 3}, {7, 4}, {5, 1}, {120, 24}} {
		t.Run(fmt.Sprintf("n=%d,b=%d", c.n, c.b), func(t *testing.T) {
			a := Random(c.n, rand.New(rand.NewSource(int64(10*c.n+c.b))))
			m := (c.n + c.b - 1) / c.b
			poisoned := make([]float64, c.b*c.b*c.b)
			BlocksOfTetrahedron(m, func(I, J, K int) {
				for i := range poisoned {
					poisoned[i] = math.NaN()
				}
				into := ExtractBlockInto(&Block{Data: poisoned}, a, I, J, K, c.b)
				for _, blk := range []*Block{ExtractBlock(a, I, J, K, c.b), into} {
					blk.ForEach(func(di, dj, dk int, v float64) {
						i, j, k := blk.GlobalIndices(di, dj, dk)
						want := 0.0
						if i < c.n && j < c.n && k < c.n {
							want = a.At(i, j, k)
						}
						if math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("block (%d,%d,%d) local (%d,%d,%d): %g want %g",
								I, J, K, di, dj, dk, v, want)
						}
					})
				}
			})
		})
	}
}

func TestBlockStorageTotalsMatchTensor(t *testing.T) {
	// Summing stored sizes of all blocks in the block tetrahedron must
	// give exactly the packed size of the padded tensor: the partition
	// stores each lower-tetrahedron element exactly once.
	for _, c := range []struct{ m, b int }{{4, 3}, {5, 2}, {3, 4}, {10, 1}} {
		total := 0
		BlocksOfTetrahedron(c.m, func(I, J, K int) {
			total += BlockLen(KindOfBlock(I, J, K), c.b)
		})
		if want := intmath.Tetrahedral(c.m * c.b); total != want {
			t.Errorf("m=%d b=%d: block storage %d, tensor storage %d", c.m, c.b, total, want)
		}
	}
}

func TestGlobalIndicesAreLowerTetrahedral(t *testing.T) {
	// Every stored block entry corresponds to a sorted global triple.
	for _, coords := range [][3]int{{3, 2, 1}, {2, 2, 1}, {2, 1, 1}, {1, 1, 1}} {
		blk := NewBlock(coords[0], coords[1], coords[2], 4)
		blk.ForEach(func(di, dj, dk int, _ float64) {
			i, j, k := blk.GlobalIndices(di, dj, dk)
			if i < j || j < k {
				t.Fatalf("block %v local (%d,%d,%d): global (%d,%d,%d) not sorted",
					blk.Kind, di, dj, dk, i, j, k)
			}
		})
	}
}

func TestBlockKindString(t *testing.T) {
	for k, want := range map[BlockKind]string{
		OffDiagonal:   "off-diagonal",
		DiagPairHigh:  "diag-pair-high",
		DiagPairLow:   "diag-pair-low",
		Central:       "central",
		BlockKind(42): "BlockKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d: %q != %q", int(k), got, want)
		}
	}
}
