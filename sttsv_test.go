package sttsv

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/steiner"
	internalsttsv "repro/internal/sttsv"
)

// The root tests drive the public entry points end to end. Where a check
// needs a function the facade does not export (the blocked driver, the
// sparse and CP fast paths, the extra eigensolvers), it calls the internal
// package directly, next to the facade calls it is checked against.

func TestFacadeSequentialPipeline(t *testing.T) {
	// End-to-end through the public API: build, compute, cross-check.
	a := RandomTensor(20, 1)
	x := make([]float64, 20)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	var st Stats
	y := Compute(a, x, &st)
	if st.TernaryMults != 20*20*21/2 {
		t.Fatalf("ternary count %d", st.TernaryMults)
	}
	yn := ComputeNaive(a.Dense(), x, nil)
	yb := internalsttsv.Blocked(a, x, 4, nil)
	for i := range y {
		if math.Abs(y[i]-yn[i]) > 1e-9 || math.Abs(y[i]-yb[i]) > 1e-9 {
			t.Fatalf("algorithms disagree at %d: %g %g %g", i, y[i], yn[i], yb[i])
		}
	}
	// λ = xᵀy.
	want := 0.0
	for i := range x {
		want += x[i] * y[i]
	}
	if got := Lambda(a, x); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Lambda = %g, want %g", got, want)
	}
}

func TestFacadeParallelPipeline(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 6
	n := part.M * b
	a := RandomTensor(n, 2)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := Compute(a, x, nil)
	for _, w := range []Wiring{WiringP2P, WiringAllToAll} {
		res, err := ParallelCompute(a, x, ParallelOptions{Part: part, B: b, Wiring: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Y[i]-want[i]) > 1e-9 {
				t.Fatalf("wiring %v differs at %d", w, i)
			}
		}
	}
	base, err := RowBaselineCompute(a, x, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(base.Y[i]-want[i]) > 1e-9 {
			t.Fatalf("baseline differs at %d", i)
		}
	}
}

func TestFacadeEigenAndCP(t *testing.T) {
	// Rank-one eigenpair through the facade.
	v := make([]float64, 12)
	for i := range v {
		v[i] = 1 / math.Sqrt(12)
	}
	a := RankOneTensor(2, v)
	pair, err := PowerMethod(a, EigenOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pair.Lambda-2) > 1e-8 {
		t.Fatalf("lambda = %g", pair.Lambda)
	}
	// CP gradient vanishes at the exact decomposition.
	f := NewFactors(12, 1)
	cbrt2 := math.Cbrt(2.0)
	for i := range v {
		f.Set(i, 0, cbrt2*v[i])
	}
	if g := CPGradient(a, f).FrobeniusNorm(); g > 1e-8 {
		t.Fatalf("gradient at exact fit %g", g)
	}
	if obj := CPObjective(a, f); obj > 1e-10 {
		t.Fatalf("objective at exact fit %g", obj)
	}
}

func TestFacadeCostModelConsistency(t *testing.T) {
	q := 3
	p := costmodel.Processors(q)
	if p != 30 {
		t.Fatalf("Processors(3) = %d", p)
	}
	n := 120
	if ScheduleSteps(q) != 26 {
		t.Fatalf("ScheduleSteps(3) = %d", ScheduleSteps(q))
	}
	if OptimalWords(n, q) <= 0 || AllToAllWords(n, q) <= OptimalWords(n, q) {
		t.Fatal("cost ordering violated")
	}
	if LowerBoundWords(n, p) > OptimalWords(n, q)+1e-9 {
		// The optimal algorithm cannot beat the lower bound.
		t.Fatalf("lower bound %g above optimal cost %g", LowerBoundWords(n, p), OptimalWords(n, q))
	}
}

func TestFacadeSteinerAccess(t *testing.T) {
	s := SQS8()
	if s.N != 8 || s.NumBlocks() != 14 {
		t.Fatal("SQS8 wrong")
	}
	part, err := NewPartitionFromSteiner(s)
	if err != nil {
		t.Fatal(err)
	}
	if part.P != 14 {
		t.Fatalf("P = %d", part.P)
	}
	sch, err := BuildSchedule(part)
	if err != nil {
		t.Fatal(err)
	}
	if sch.NumSteps() != 12 {
		t.Fatalf("SQS8 schedule steps = %d, want 12 (Figure 1)", sch.NumSteps())
	}
	sys, err := steiner.Spherical(2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 5 {
		t.Fatalf("Spherical(2).N = %d", sys.N)
	}
}

func TestFacadeHypergraph(t *testing.T) {
	a, err := HypergraphTensor(4, [][3]int{{0, 1, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a.At(2, 1, 0) != 0.5 {
		t.Fatal("edge entry wrong")
	}
	r, err := RandomHypergraphTensor(10, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 10 {
		t.Fatal("dimension wrong")
	}
	if _, _, err := ExtractRankOnes(RandomTensor(5, 5), 1, EigenOptions{Seed: 6, Shift: 10, MaxIter: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSession(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 6
	n := part.M * b
	a := RandomTensor(n, 3)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	want := Compute(a, x, nil)
	s, err := OpenSession(a, ParallelOptions{Part: part, B: b, MaxCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 3; round++ {
		res, err := s.Apply(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Y[i]-want[i]) > 1e-9 {
				t.Fatalf("round %d differs at %d", round, i)
			}
		}
	}
	batch, err := s.ApplyBatch([][]float64{x, x})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range batch.Y {
		for i := range want {
			if math.Abs(col[i]-want[i]) > 1e-9 {
				t.Fatal("batch column differs")
			}
		}
	}
}
