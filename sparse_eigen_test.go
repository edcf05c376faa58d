package sttsv

import (
	"math"
	"testing"

	"repro/internal/hopm"
	"repro/internal/sparse"
	"repro/internal/steiner"
)

func TestFacadeSparse(t *testing.T) {
	edges := [][3]int{{0, 1, 2}, {1, 2, 3}, {0, 3, 4}}
	sp, err := sparse.FromHypergraph(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NNZ() != 3 {
		t.Fatalf("NNZ = %d", sp.NNZ())
	}
	dense, err := HypergraphTensor(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 2, 0.5, 3}
	var st Stats
	ys := sp.Apply(x, &st)
	yd := Compute(dense, x, nil)
	for i := range ys {
		if math.Abs(ys[i]-yd[i]) > 1e-12 {
			t.Fatalf("sparse and dense disagree at %d", i)
		}
	}
	if st.TernaryMults != 9 { // 3 strict entries × 3 ops
		t.Fatalf("ternary count %d, want 9", st.TernaryMults)
	}
	// Sparsify round trip.
	sp2 := sparse.FromPacked(dense, 0)
	if sp2.NNZ() != 3 {
		t.Fatalf("sparse.FromPacked NNZ = %d", sp2.NNZ())
	}
	// Power method parity.
	p1, err := hopm.PowerMethod(sp.STTSV(), sp.N, EigenOptions{Seed: 1, MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PowerMethod(dense, EigenOptions{Seed: 1, MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.Lambda-p2.Lambda) > 1e-9 {
		t.Fatalf("sparse λ %g vs dense %g", p1.Lambda, p2.Lambda)
	}
}

func TestFacadeSequenceBaseline(t *testing.T) {
	n := 20
	a := RandomTensor(n, 12)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	want := Compute(a, x, nil)
	res, err := SequenceBaselineCompute(a, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(res.Y[i]-want[i]) > 1e-9 {
			t.Fatalf("sequence baseline differs at %d", i)
		}
	}
}

func TestFacadeSQSDoubled(t *testing.T) {
	s, err := steiner.SQSDoubled(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 16 || s.NumBlocks() != 140 {
		t.Fatalf("SQS(16): n=%d blocks=%d", s.N, s.NumBlocks())
	}
	part, err := NewPartitionFromSteiner(s)
	if err != nil {
		t.Fatal(err)
	}
	if part.P != 140 {
		t.Fatalf("P = %d", part.P)
	}
}
