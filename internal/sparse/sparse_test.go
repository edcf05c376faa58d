package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hopm"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

const tol = 1e-10

func TestApplyMatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(12) + 3
		a := tensor.Random(n, rng)
		// Sparsify: drop ~70% of entries.
		for idx := range a.Data {
			if rng.Float64() < 0.7 {
				a.Data[idx] = 0
			}
		}
		sp := FromPacked(a, 0)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := sttsv.Packed(a, x, nil)
		got := sp.Apply(x, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("trial %d: sparse differs at %d: %g vs %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestWorkProportionalToNNZ(t *testing.T) {
	coords := []Entry{
		{3, 2, 1, 1.0}, // strict: 3 ops
		{2, 2, 1, 1.0}, // pair-high: 2
		{2, 1, 1, 1.0}, // pair-low: 2
		{1, 1, 1, 1.0}, // central: 1
	}
	sp, err := New(4, coords)
	if err != nil {
		t.Fatal(err)
	}
	var st sttsv.Stats
	sp.Apply(make([]float64, 4), &st)
	if st.TernaryMults != 8 {
		t.Fatalf("counted %d ternary mults, want 8", st.TernaryMults)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, []Entry{{0, 1, 3, 1}}); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if _, err := New(4, []Entry{{1, 2, 3, 1}, {3, 2, 1, 2}}); err == nil {
		t.Error("duplicate multiset accepted")
	}
}

// TestInt32Coordinates: a dimension or vertex that does not fit in
// Entry's int32 coordinates is an error, never a panic or a silently
// wrapped index.
func TestInt32Coordinates(t *testing.T) {
	const wide = math.MaxInt32 + 1
	if _, err := New(wide, []Entry{{2, 1, 0, 1}}); err == nil {
		t.Error("New accepted n = 2³¹")
	}
	if _, err := New(math.MaxInt32, []Entry{{math.MaxInt32 - 1, 1, 0, 1}}); err != nil {
		t.Errorf("New rejected n = 2³¹−1: %v", err)
	}
	if _, err := FromHypergraph(wide, [][3]int{{wide - 1, 1, 0}}); err == nil {
		t.Error("FromHypergraph accepted n = 2³¹")
	}
	// 2³² + 2 wraps to 2 as an int32; it must be out of range, not a
	// duplicate of vertex 2.
	if _, err := FromHypergraph(5, [][3]int{{1<<32 + 2, 1, 0}}); err == nil {
		t.Error("FromHypergraph accepted vertex 2³²+2 on n = 5")
	}
	if _, err := RandomHypergraph(wide, 10, 1); err == nil {
		t.Error("RandomHypergraph accepted n = 2³¹")
	}
	if _, err := SkewedHypergraph(wide, 10, 1, 1); err == nil {
		t.Error("SkewedHypergraph accepted n = 2³¹")
	}
}

func TestNewSortsIndices(t *testing.T) {
	sp, err := New(5, []Entry{{1, 4, 2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	e := sp.Entries()[0]
	if e.I != 4 || e.J != 2 || e.K != 1 {
		t.Fatalf("entry not sorted: %+v", e)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.Random(6, rng)
	sp := FromPacked(a, 0)
	back := sp.Dense()
	for i := range a.Data {
		if a.Data[i] != back.Data[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
	if sp.NNZ() != len(a.Data) {
		// Random entries are almost surely nonzero.
		t.Fatalf("NNZ = %d, want %d", sp.NNZ(), len(a.Data))
	}
}

func TestFromHypergraphMatchesDense(t *testing.T) {
	edges := [][3]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 4}}
	sp, err := FromHypergraph(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := tensor.HypergraphAdjacency(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	want := sttsv.Packed(dense, x, nil)
	got := sp.Apply(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("hypergraph sparse differs at %d", i)
		}
	}
	if _, err := FromHypergraph(5, [][3]int{{1, 1, 2}}); err == nil {
		t.Error("degenerate edge accepted")
	}
}

func TestSparsePowerMethod(t *testing.T) {
	// The sparse kernel plugs into the power method via STTSV(): find the
	// dominant eigenpair of a sparse nonnegative tensor.
	rng := rand.New(rand.NewSource(3))
	dense, err := tensor.RandomHypergraph(30, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	sp := FromPacked(dense, 0)
	pair, err := hopm.PowerMethod(sp.STTSV(), 30, hopm.Options{Seed: 4, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Converged {
		t.Fatal("sparse power method did not converge")
	}
	// Same eigenvalue as the dense path.
	densePair, err := hopm.PowerMethod(hopm.PackedSTTSV(dense), 30, hopm.Options{Seed: 4, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pair.Lambda-densePair.Lambda) > 1e-8 {
		t.Fatalf("sparse lambda %g vs dense %g", pair.Lambda, densePair.Lambda)
	}
}

func TestApplyPanicsOnBadVector(t *testing.T) {
	sp, _ := New(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	sp.Apply(make([]float64, 2), nil)
}

func BenchmarkSparseApply(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dense, err := tensor.RandomHypergraph(500, 5000, rng)
	if err != nil {
		b.Fatal(err)
	}
	sp := FromPacked(dense, 0)
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Apply(x, nil)
	}
}

func BenchmarkDenseApplySameTensor(b *testing.B) {
	// The dense path on the same hypergraph: ~n³/6 work vs NNZ.
	rng := rand.New(rand.NewSource(5))
	dense, err := tensor.RandomHypergraph(500, 5000, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sttsv.Packed(dense, x, nil)
	}
}
