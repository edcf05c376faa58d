package sttsv

import (
	"math"
	"testing"

	"repro/internal/dsym"
	"repro/internal/parallel"
)

func TestFacadeMTTKRP(t *testing.T) {
	n, r := 15, 4
	a := RandomTensor(n, 10)
	cols := make([][]float64, r)
	for l := range cols {
		c := make([]float64, n)
		for i := range c {
			c[i] = math.Sin(float64(l*n + i))
		}
		cols[l] = c
	}
	x := FactorsFromColumns(cols)
	fused := MTTKRP(a, x, nil)
	colw := MTTKRPColumnwise(a, x, nil)
	for i := range fused.Data {
		if math.Abs(fused.Data[i]-colw.Data[i]) > 1e-10 {
			t.Fatalf("fused vs columnwise differ at %d", i)
		}
	}
	// Column ℓ equals STTSV of that column.
	for l := 0; l < r; l++ {
		y := Compute(a, cols[l], nil)
		for i := 0; i < n; i++ {
			if math.Abs(fused.At(i, l)-y[i]) > 1e-10 {
				t.Fatalf("column %d row %d mismatch", l, i)
			}
		}
	}
}

func TestFacadeParallelMTTKRP(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 6
	n := part.M * b
	r := 2
	a := RandomTensor(n, 11)
	cols := make([][]float64, r)
	for l := range cols {
		c := make([]float64, n)
		for i := range c {
			c[i] = math.Cos(float64(l + i))
		}
		cols[l] = c
	}
	x := FactorsFromColumns(cols)
	want := MTTKRP(a, x, nil)
	y, res, err := ParallelMTTKRP(a, x, r, ParallelOptions{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(y.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("parallel MTTKRP differs at %d", i)
		}
	}
	if res.Report.MaxSentWords() == 0 {
		t.Fatal("no communication metered")
	}
}

func TestFacadeDTensor(t *testing.T) {
	// Rank-one identity at order 4 through the facade.
	n, d := 8, 4
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	a := dsym.RankOne(3, v, d)
	y := DCompute(a, v)
	for i := range y {
		if math.Abs(y[i]-3*v[i]) > 1e-9 {
			t.Fatalf("order-4 rank-one identity violated at %d", i)
		}
	}
	lambda, x, _, converged := dsym.PowerMethod(a, 1, 0, 2000, 1e-12)
	if !converged || math.Abs(lambda-3) > 1e-6 {
		t.Fatalf("dsym.PowerMethod: lambda=%g converged=%v", lambda, converged)
	}
	if a := math.Abs(dotVec(x, v)); math.Abs(a-1) > 1e-6 {
		t.Fatalf("alignment %g", a)
	}
	// Random tensor shape checks.
	rt := RandomDTensor(6, 5, 2)
	if rt.N != 6 || rt.D != 5 {
		t.Fatal("RandomDTensor shape wrong")
	}
	if dsym.New(4, 3).At(1, 2, 3) != 0 {
		t.Fatal("zero tensor not zero")
	}
}

func TestFactorsFromColumnsEmpty(t *testing.T) {
	m := FactorsFromColumns(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatal("empty factors wrong shape")
	}
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestFacadeDistributedPowerMethod(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 6
	n := part.M * b
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	a := RankOneTensor(2, v)
	res, err := parallel.RunPowerMethod(a,
		ParallelOptions{Part: part, B: b, Wiring: WiringP2P},
		parallel.PowerOptions{MaxIter: 100, Tol: 1e-12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.Lambda-2) > 1e-8 {
		t.Fatalf("lambda=%g converged=%v", res.Lambda, res.Converged)
	}
}
