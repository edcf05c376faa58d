package sttsv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestExecutorMatchesSequential: the multicore executor must agree with
// the sequential blocked driver (same tiled kernels, different summation
// grouping across workers) for every worker count, and count exactly the
// same ternary multiplications.
func TestExecutorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, c := range []struct{ n, m int }{{37, 5}, {24, 4}, {9, 3}} {
		a := tensor.Random(c.n, rng)
		x := randVec(c.n, rng)
		var stSeq Stats
		want := Blocked(a, x, c.m, &stSeq)
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			var st Stats
			got := NewOperator(a, c.m, workers).Apply(x, &st)
			if st.TernaryMults != stSeq.TernaryMults {
				t.Fatalf("n=%d m=%d workers=%d: stats %d want %d",
					c.n, c.m, workers, st.TernaryMults, stSeq.TernaryMults)
			}
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > 1e-11*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d m=%d workers=%d: y[%d]=%g want %g",
						c.n, c.m, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExecutorDeterministicBits is the repeated-run determinism check the
// acceptance criteria require (run under -race in CI): for a fixed worker
// count the executor must produce identical bytes on every run — the
// static round-robin block deal, private per-worker accumulators and the
// fixed pairwise tree reduction leave no scheduling dependence. A second
// independently-packed Operator must reproduce the same bits too.
func TestExecutorDeterministicBits(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n, m, workers := 41, 6, 4
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	op := NewOperator(a, m, workers)
	ref := op.Apply(x, nil)
	for run := 0; run < 5; run++ {
		got := op.Apply(x, nil)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("run %d: y[%d] bits %x differ from %x",
					run, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
			}
		}
	}
	op2 := NewOperator(a, m, workers)
	got := op2.Apply(x, nil)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("fresh operator: y[%d] bits differ", i)
		}
	}
}

// TestOperatorMatchesPacked: the reusable operator against the Algorithm 4
// oracle, with padding and repeated applications on different vectors (the
// scratch state must fully reset between applications).
func TestOperatorMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, c := range []struct{ n, m, workers int }{
		{12, 4, 1}, {10, 4, 2}, {11, 5, 4}, {25, 3, 0}, {1, 3, 2},
	} {
		a := tensor.Random(c.n, rng)
		op := NewOperator(a, c.m, c.workers)
		for rep := 0; rep < 3; rep++ {
			x := randVec(c.n, rng)
			want := Packed(a, x, nil)
			var st Stats
			got := op.Apply(x, &st)
			if d := maxAbsDiff(got, want); d > tol {
				t.Fatalf("n=%d m=%d workers=%d rep=%d: differs by %g", c.n, c.m, c.workers, rep, d)
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
	op := NewOperator(a, 4, 2)
	if op.N() != 10 || op.M() != 4 || op.B() != 3 || op.Workers() != 2 {
		t.Fatalf("geometry: n=%d m=%d b=%d workers=%d", op.N(), op.M(), op.B(), op.Workers())
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
