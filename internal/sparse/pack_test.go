package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/intmath"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randSparse builds a random sparsified tensor of dimension n.
func randSparse(n int, drop float64, rng *rand.Rand) (*tensor.Symmetric, *Tensor) {
	a := tensor.Random(n, rng)
	for idx := range a.Data {
		if rng.Float64() < drop {
			a.Data[idx] = 0
		}
	}
	return a, FromPacked(a, 0)
}

// allCoords lists every block coordinate I >= J >= K of m row blocks in
// (I, J, K) order.
func allCoords(m int) [][3]int {
	var out [][3]int
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= j; k++ {
				out = append(out, [3]int{i, j, k})
			}
		}
	}
	return out
}

// TestPackTernaryOracle: the packed blocks' exact ternary count must
// equal the COO Apply count — the nnz/Stats accounting oracle.
func TestPackTernaryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 3
		b := rng.Intn(5) + 1
		_, sp := randSparse(n, 0.8, rng)
		pk, err := Pack(sp, b)
		if err != nil {
			t.Fatal(err)
		}
		var coo sttsv.Stats
		sp.Apply(make([]float64, n), &coo)
		var ternary int64
		nnz := 0
		for _, blk := range pk.Select(allCoords(pk.M)) {
			ternary += blk.Ternary
			nnz += blk.NNZ()
		}
		if ternary != coo.TernaryMults {
			t.Fatalf("n=%d b=%d: packed ternary %d, COO %d", n, b, ternary, coo.TernaryMults)
		}
		if nnz != sp.NNZ() {
			t.Fatalf("n=%d b=%d: packed nnz %d, tensor nnz %d", n, b, nnz, sp.NNZ())
		}
		var st sttsv.Stats
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		pk.ApplyPacked(x, &st)
		if st.TernaryMults != coo.TernaryMults {
			t.Fatalf("n=%d b=%d: ApplyPacked counted %d, COO %d", n, b, st.TernaryMults, coo.TernaryMults)
		}
	}
}

// TestBlockApplyBitwiseScalarOracle: BlockApply on a sparse block must be
// bit-for-bit BlockContributeScalar on the dense expansion of the same
// block — across all four kinds, paddings, sparsity levels and run
// shapes. Each block starts from the same random y on both sides, so a
// fold that loses or misplaces what y already held shows. DiagPairLow
// and central runs must end both with and without their dk == dj
// diagonal element, the one element the kernel splits off a run.
func TestBlockApplyBitwiseScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// runEnds[kind][d] counts the runs of that kind that end with (d = 1)
	// and without (d = 0) their diagonal element.
	runEnds := map[tensor.BlockKind]*[2]int{tensor.DiagPairLow: {}, tensor.Central: {}}
	check := func(name string, sp *Tensor, b int) {
		t.Helper()
		n := sp.N
		pk, err := Pack(sp, b)
		if err != nil {
			t.Fatal(err)
		}
		padded := pk.M * b
		// Padded dense copy for block extraction.
		ad := tensor.NewSymmetric(padded)
		sp.ForEach(func(e Entry) { ad.Set(int(e.I), int(e.J), int(e.K), e.V) })
		x := make([]float64, padded)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
		}
		row := func(buf []float64, i int) []float64 { return buf[i*b : (i+1)*b] }
		for _, blk := range pk.Select(allCoords(pk.M)) {
			dblk := tensor.ExtractBlock(ad, blk.I, blk.J, blk.K, b)
			ys := make([]float64, padded)
			for i := range ys {
				ys[i] = rng.NormFloat64()
			}
			yd := slices.Clone(ys)
			BlockApply(blk, row(x, blk.I), row(x, blk.J), row(x, blk.K),
				row(ys, blk.I), row(ys, blk.J), row(ys, blk.K), nil)
			sttsv.BlockContributeScalar(dblk, row(x, dblk.I), row(x, dblk.J), row(x, dblk.K),
				row(yd, dblk.I), row(yd, dblk.J), row(yd, dblk.K), nil)
			if !bitsEqual(ys, yd) {
				t.Fatalf("%s (n=%d b=%d): block (%d,%d,%d) kind %v: sparse kernel not bit-identical to scalar kernel",
					name, n, b, blk.I, blk.J, blk.K, blk.Kind)
			}
			if ends := runEnds[blk.Kind]; ends != nil {
				for t0 := 0; t0 < blk.NNZ(); {
					end := runEnd(blk.DI, blk.DJ, t0)
					if blk.DK[end-1] == blk.DJ[t0] {
						ends[1]++
					} else {
						ends[0]++
					}
					t0 = end
				}
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(40) + 4
		b := rng.Intn(6) + 2
		drop := []float64{0.3, 0.8, 0.97}[trial%3]
		_, sp := randSparse(n, drop, rng)
		check(fmt.Sprintf("trial %d", trial), sp, b)
	}
	// Run shapes the random grid leaves to chance: b = 1 (every block a
	// single element), runs up to 16 long, a ragged last row block, and a
	// hypergraph whose strict triples give runs of mostly one element and
	// no diagonal element.
	_, unit := randSparse(12, 0.5, rng)
	check("b=1", unit, 1)
	_, long := randSparse(48, 0.3, rng)
	check("b=16", long, 16)
	_, ragged := randSparse(37, 0.5, rng)
	check("n%b!=0", ragged, 8)
	hyper, err := SkewedHypergraph(60, 600, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	check("hypergraph", hyper, 8)
	for kind, ends := range runEnds {
		if ends[0] == 0 || ends[1] == 0 {
			t.Errorf("%v runs: %d end without the diagonal element, %d with it; want both", kind, ends[0], ends[1])
		}
	}
}

// TestApplyPackedBitwiseBlockedOracle: the full packed apply must be
// bit-identical to running the dense scalar kernel over the dense
// expansion's blocks in the same kind-grouped order.
func TestApplyPackedBitwiseBlockedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(30) + 6
		b := rng.Intn(4) + 2
		a, sp := randSparse(n, 0.85, rng)
		pk, err := Pack(sp, b)
		if err != nil {
			t.Fatal(err)
		}
		padded := pk.M * b
		ad := tensor.NewSymmetric(padded)
		a.ForEach(func(i, j, k int, v float64) { ad.Set(i, j, k, v) })
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := pk.ApplyPacked(x, nil)

		xp := make([]float64, padded)
		copy(xp, x)
		yp := make([]float64, padded)
		row := func(buf []float64, i int) []float64 { return buf[i*b : (i+1)*b] }
		for _, blk := range pk.Select(allCoords(pk.M)) {
			dblk := tensor.ExtractBlock(ad, blk.I, blk.J, blk.K, b)
			sttsv.BlockContributeScalar(dblk, row(xp, blk.I), row(xp, blk.J), row(xp, blk.K),
				row(yp, blk.I), row(yp, blk.J), row(yp, blk.K), nil)
		}
		if !bitsEqual(got, yp[:n]) {
			t.Fatalf("trial %d (n=%d b=%d): ApplyPacked not bit-identical to dense scalar blocked apply", trial, n, b)
		}
		// And within tolerance of the entry-order COO kernel (different
		// association order, so ulps not bits).
		coo := sp.Apply(x, nil)
		for i := range coo {
			if math.Abs(coo[i]-got[i]) > 1e-9*math.Max(1, math.Abs(coo[i])) {
				t.Fatalf("trial %d: packed vs COO differ at %d: %g vs %g", trial, i, got[i], coo[i])
			}
		}
	}
}

// TestPackBlocksSelect: Select restricted to a coordinate subset
// returns exactly those blocks, kind-grouped, and skips empty
// coordinates and coordinates past the last row block.
func TestPackBlocksSelect(t *testing.T) {
	sp, err := New(8, []Entry{
		{7, 3, 1, 1.0}, // block (3,1,0) off-diagonal at b=2
		{5, 4, 1, 2.0}, // block (2,2,0) diag-pair-high
		{1, 1, 0, 3.0}, // block (0,0,0) central
	})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := Pack(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := pk.Select([][3]int{{0, 0, 0}, {3, 1, 0}, {1, 1, 1}, {4, 1, 0}})
	if len(blocks) != 2 {
		t.Fatalf("selected %d blocks, want 2 (empty (1,1,1) and out-of-range (4,1,0) skipped)", len(blocks))
	}
	// Kind grouping: off-diagonal before central.
	if blocks[0].Kind != tensor.OffDiagonal || blocks[1].Kind != tensor.Central {
		t.Fatalf("kind order = %v, %v", blocks[0].Kind, blocks[1].Kind)
	}
	if blocks[0].NNZ() != 1 || blocks[1].NNZ() != 1 {
		t.Fatalf("nnz = %d, %d, want 1, 1", blocks[0].NNZ(), blocks[1].NNZ())
	}
}

// TestBlockCounts: direct per-block nnz counting must agree with the
// packed form's accounting.
func TestBlockCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	_, sp := randSparse(25, 0.7, rng)
	pk, err := Pack(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct := BlockCounts(sp, 3)
	blocks := pk.Select(allCoords(pk.M))
	if len(direct) != len(blocks) {
		t.Fatalf("BlockCounts has %d blocks, packed %d", len(direct), len(blocks))
	}
	var total int64
	for _, blk := range blocks {
		if cnt := direct[[3]int{blk.I, blk.J, blk.K}]; cnt != int64(blk.NNZ()) {
			t.Fatalf("block (%d,%d,%d): direct %d, packed %d", blk.I, blk.J, blk.K, cnt, blk.NNZ())
		}
		total += int64(blk.NNZ())
	}
	if total != int64(sp.NNZ()) {
		t.Fatalf("counts sum %d, nnz %d", total, sp.NNZ())
	}
}

// TestEntriesReturnsCopy: mutating the slice returned by Entries must
// not corrupt the tensor's sorted invariant (regression: the seed
// returned the internal slice).
func TestEntriesReturnsCopy(t *testing.T) {
	sp, err := New(4, []Entry{{3, 2, 1, 1.0}, {2, 1, 0, 2.0}})
	if err != nil {
		t.Fatal(err)
	}
	es := sp.Entries()
	es[0] = Entry{I: 99, J: 99, K: 99, V: -1}
	again := sp.Entries()
	if again[0].I == 99 {
		t.Fatal("Entries() aliases internal state: external mutation corrupted the tensor")
	}
	if again[0].I != 2 || again[1].I != 3 {
		t.Fatalf("entries out of order after external mutation: %+v", again)
	}
	var seen int
	sp.ForEach(func(e Entry) {
		if e.I == 99 {
			t.Fatal("ForEach observed the external mutation")
		}
		seen++
	})
	if seen != 2 {
		t.Fatalf("ForEach visited %d entries, want 2", seen)
	}
}

// TestFromPackedThreshold pins the threshold semantics: strict |v| >
// threshold, negative threshold means keep all nonzero, and explicit
// zeros are never kept.
func TestFromPackedThreshold(t *testing.T) {
	a := tensor.NewSymmetric(4)
	a.Set(1, 0, 0, 0.5)
	a.Set(2, 1, 0, -0.5)
	a.Set(3, 2, 1, 0.25)
	a.Set(2, 2, 2, 1.5)
	a.Set(3, 3, 3, 0) // explicit zero

	if got := FromPacked(a, 0.5).NNZ(); got != 1 {
		t.Errorf("threshold 0.5: kept %d entries, want 1 (strict >: both ±0.5 dropped)", got)
	}
	if got := FromPacked(a, 0.25).NNZ(); got != 3 {
		t.Errorf("threshold 0.25: kept %d entries, want 3 (0.25 itself dropped)", got)
	}
	if got := FromPacked(a, 0).NNZ(); got != 4 {
		t.Errorf("threshold 0: kept %d entries, want 4 (all nonzero)", got)
	}
	if got := FromPacked(a, -1).NNZ(); got != 4 {
		t.Errorf("threshold -1: kept %d entries, want 4 (negative = keep all nonzero, zeros never kept)", got)
	}
}

// samePacked reports the first difference between two packings: slot
// occupancy, block headers, ternary counts, and every coordinate and
// value bit.
func samePacked(a, b *Packed) error {
	if a.N != b.N || a.M != b.M || a.B != b.B || len(a.slots) != len(b.slots) {
		return fmt.Errorf("shape (%d,%d,%d,%d slots) vs (%d,%d,%d,%d slots)",
			a.N, a.M, a.B, len(a.slots), b.N, b.M, b.B, len(b.slots))
	}
	if !slices.Equal(a.coords, b.coords) {
		return fmt.Errorf("occupied coordinates %v vs %v", a.coords, b.coords)
	}
	for s, x := range a.slots {
		y := b.slots[s]
		if (x == nil) != (y == nil) {
			return fmt.Errorf("slot %d occupied %v vs %v", s, x != nil, y != nil)
		}
		if x == nil {
			continue
		}
		if x.Kind != y.Kind || x.I != y.I || x.J != y.J || x.K != y.K || x.B != y.B || x.Ternary != y.Ternary {
			return fmt.Errorf("slot %d header %v (%d,%d,%d) b=%d tern=%d vs %v (%d,%d,%d) b=%d tern=%d",
				s, x.Kind, x.I, x.J, x.K, x.B, x.Ternary, y.Kind, y.I, y.J, y.K, y.B, y.Ternary)
		}
		if !slices.Equal(x.DI, y.DI) || !slices.Equal(x.DJ, y.DJ) || !slices.Equal(x.DK, y.DK) || !bitsEqual(x.Vals, y.Vals) {
			return fmt.Errorf("slot %d block (%d,%d,%d): coordinate runs or values differ", s, x.I, x.J, x.K)
		}
	}
	return nil
}

// TestPackChunkCountInvariant: the packed form does not depend on how
// many chunks Pack's passes split the entries into. Every chunk count
// from 1 to 8 must give the one-chunk packing byte for byte, on inputs
// where a chunk boundary falls inside one block's entries, blocks are
// empty, n is not a multiple of b, and chunks hold no entries at all.
func TestPackChunkCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	_, one := randSparse(10, 0.2, rng) // b >= n: every entry in block (0,0,0)
	_, ragged := randSparse(37, 0.97, rng)
	few, err := New(9, []Entry{{8, 4, 0, 1}, {2, 1, 0, 2}, {7, 7, 7, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Above 2·minPackChunk entries, so Pack splits it on its own on a
	// host with two or more cores; run with -race for the concurrency.
	large, err := SkewedHypergraph(3000, 2*minPackChunk+1000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var splitBlock, emptyBlock, ragged8, emptyChunk bool
	for _, c := range []struct {
		name string
		sp   *Tensor
		b    int
	}{
		{"one block", one, 16},
		{"ragged n=37 b=8", ragged, 8},
		{"three entries", few, 3},
		{"large", large, 500},
	} {
		want := pack(c.sp, c.b, 1)
		ragged8 = ragged8 || c.sp.N%c.b != 0
		for s := range want.slots {
			emptyBlock = emptyBlock || want.slots[s] == nil
		}
		for chunks := 1; chunks <= 8; chunks++ {
			got := pack(c.sp, c.b, chunks)
			if err := samePacked(want, got); err != nil {
				t.Fatalf("%s, %d chunks: %v", c.name, chunks, err)
			}
			nnz := c.sp.NNZ()
			for k := 1; k < chunks; k++ {
				if lo, hi := (k-1)*nnz/chunks, k*nnz/chunks; lo == hi {
					emptyChunk = true
				} else if hi < nnz && slotOf(c.sp.entries[hi-1], c.b) == slotOf(c.sp.entries[hi], c.b) {
					splitBlock = true
				}
			}
		}
		if got, err := Pack(c.sp, c.b); err != nil {
			t.Fatal(err)
		} else if err := samePacked(want, got); err != nil {
			t.Fatalf("%s, Pack's own %d chunks: %v", c.name, packChunks(c.sp.NNZ(), len(want.slots)), err)
		}
	}
	if !splitBlock || !emptyBlock || !ragged8 || !emptyChunk {
		t.Fatalf("cases not covered: split block %v, empty block %v, n%%b != 0 %v, empty chunk %v",
			splitBlock, emptyBlock, ragged8, emptyChunk)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		if c := packChunks(large.NNZ(), intmath.Tetrahedral(6)); c < 2 {
			t.Fatalf("Pack splits %d entries into %d chunk(s) at GOMAXPROCS %d, want >= 2",
				large.NNZ(), c, runtime.GOMAXPROCS(0))
		}
	}
}

// slotOf returns the block slot an entry falls in at block edge b.
func slotOf(e Entry, b int) int {
	return slot(int(e.I)/b, int(e.J)/b, int(e.K)/b)
}
