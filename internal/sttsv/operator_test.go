package sttsv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestExecutorMatchesSequential: the packed operator must agree with the
// sequential blocked driver (same tiled kernels, blocks applied in
// kind-grouped instead of tetrahedron order) and count exactly the same
// ternary multiplications.
func TestExecutorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, c := range []struct{ n, m int }{{37, 5}, {24, 4}, {9, 3}} {
		a := tensor.Random(c.n, rng)
		x := randVec(c.n, rng)
		var stSeq Stats
		want := Blocked(a, x, c.m, &stSeq)
		var st Stats
		got := NewOperator(a, c.m).Apply(x, &st)
		if st.TernaryMults != stSeq.TernaryMults {
			t.Fatalf("n=%d m=%d: stats %d want %d", c.n, c.m, st.TernaryMults, stSeq.TernaryMults)
		}
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-11*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d m=%d: y[%d]=%g want %g", c.n, c.m, i, got[i], want[i])
			}
		}
	}
}

// TestOperatorMatchesPacked: the reusable operator against the Algorithm 4
// oracle, with padding and repeated applications on different vectors (the
// scratch state must fully reset between applications).
func TestOperatorMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, c := range []struct{ n, m int }{
		{12, 4}, {10, 4}, {11, 5}, {25, 3}, {1, 3},
	} {
		a := tensor.Random(c.n, rng)
		op := NewOperator(a, c.m)
		for rep := 0; rep < 3; rep++ {
			x := randVec(c.n, rng)
			want := Packed(a, x, nil)
			var st Stats
			got := op.Apply(x, &st)
			if d := maxAbsDiff(got, want); d > tol {
				t.Fatalf("n=%d m=%d rep=%d: differs by %g", c.n, c.m, rep, d)
			}
			padded := op.M() * op.B()
			if want := PackedTernaryCount(padded); st.TernaryMults != want {
				t.Fatalf("n=%d m=%d: counted %d want %d", c.n, c.m, st.TernaryMults, want)
			}
		}
	}
}

// TestOperatorGeometry pins the derived grid parameters.
func TestOperatorGeometry(t *testing.T) {
	a := tensor.Random(10, rand.New(rand.NewSource(83)))
	op := NewOperator(a, 4)
	if op.N() != 10 || op.M() != 4 || op.B() != 3 {
		t.Fatalf("geometry: n=%d m=%d b=%d", op.N(), op.M(), op.B())
	}
	// Packed words must equal the tetrahedral total of the padded grid.
	want := 0
	tensor.BlocksOfTetrahedron(4, func(I, J, K int) {
		want += tensor.BlockLen(tensor.KindOfBlock(I, J, K), 3)
	})
	if op.Words() != want {
		t.Fatalf("words %d want %d", op.Words(), want)
	}
}

// TestBlockedScratchReuse: Blocked must stream blocks through one scratch
// buffer — its allocation count must not grow with the number of blocks
// (m³/6 blocks would each have allocated a fresh Block in the seed).
func TestBlockedScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	n := 24
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	allocsAt := func(m int) float64 {
		return testing.AllocsPerRun(10, func() { Blocked(a, x, m, nil) })
	}
	small, large := allocsAt(2), allocsAt(8) // 4 blocks vs 120 blocks
	if large > small+2 {
		t.Fatalf("allocations grow with block count: m=2 → %.0f, m=8 → %.0f", small, large)
	}
	if large > 8 {
		t.Fatalf("Blocked allocates %.0f objects per run, want a small constant", large)
	}
}
