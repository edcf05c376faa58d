package sttsv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

const tol = 1e-10

func randVec(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestNaiveAgainstDefinition(t *testing.T) {
	// Tiny case computed by hand: A = x∘x∘x with x = (1,2) gives
	// y_i = x_i (Σ_j x_j²)² ... more directly y = A ×₂ v ×₃ v with v = x:
	// y_i = x_i (x·x)².
	x := []float64{1, 2}
	a := tensor.RankOne(1, x).Dense()
	y := Naive(a, x, nil)
	norm2 := 1.0*1 + 2.0*2
	for i := range x {
		want := x[i] * norm2 * norm2
		if math.Abs(y[i]-want) > tol {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
}

func TestPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33} {
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		want := Naive(a.Dense(), x, nil)
		got := Packed(a, x, nil)
		if d := maxAbsDiff(got, want); d > tol {
			t.Fatalf("n=%d: Packed differs from Naive by %g", n, d)
		}
	}
}

func TestTernaryCounts(t *testing.T) {
	// Algorithm 3 does n³; Algorithm 4 does n²(n+1)/2 (§3).
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 5, 10, 20} {
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		var sn, sp Stats
		Naive(a.Dense(), x, &sn)
		Packed(a, x, &sp)
		if want := int64(n) * int64(n) * int64(n); sn.TernaryMults != want {
			t.Errorf("n=%d: Naive counted %d, want %d", n, sn.TernaryMults, want)
		}
		if want := PackedTernaryCount(n); sp.TernaryMults != want {
			t.Errorf("n=%d: Packed counted %d, want %d", n, sp.TernaryMults, want)
		}
	}
}

func TestPackedIsHalfOfNaive(t *testing.T) {
	// The headline §3 claim: Algorithm 4 performs about half the ternary
	// multiplications of Algorithm 3, converging as n grows.
	for _, n := range []int{10, 50, 200} {
		ratio := float64(PackedTernaryCount(n)) / float64(int64(n)*int64(n)*int64(n))
		if math.Abs(ratio-0.5) > 1.0/float64(n) {
			t.Errorf("n=%d: ratio %g not within 1/n of 0.5", n, ratio)
		}
	}
}

func TestQuadraticScaling(t *testing.T) {
	// y(c·x) = c²·y(x): STTSV is a quadratic form in x for each output.
	rng := rand.New(rand.NewSource(24))
	n := 9
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	c := 3.7
	cx := make([]float64, n)
	for i := range x {
		cx[i] = c * x[i]
	}
	y1 := Packed(a, x, nil)
	y2 := Packed(a, cx, nil)
	for i := range y1 {
		if math.Abs(y2[i]-c*c*y1[i]) > tol*(1+math.Abs(y1[i])) {
			t.Fatalf("quadratic scaling fails at %d", i)
		}
	}
}

func TestLinearityInTensor(t *testing.T) {
	// STTSV is linear in A: y(A+B) = y(A) + y(B).
	rng := rand.New(rand.NewSource(25))
	n := 8
	a := tensor.Random(n, rng)
	b := tensor.Random(n, rng)
	x := randVec(n, rng)
	sum := a.Clone()
	for i := range sum.Data {
		sum.Data[i] += b.Data[i]
	}
	ya := Packed(a, x, nil)
	yb := Packed(b, x, nil)
	ys := Packed(sum, x, nil)
	for i := range ya {
		if math.Abs(ys[i]-ya[i]-yb[i]) > tol {
			t.Fatalf("linearity fails at %d", i)
		}
	}
}

func TestRankOneEigenpair(t *testing.T) {
	// For A = x∘x∘x with ‖x‖ = 1, A ×₂ x ×₃ x = x (λ = 1): the defining
	// Z-eigenpair identity of §1.
	rng := rand.New(rand.NewSource(26))
	n := 12
	x := randVec(n, rng)
	norm := math.Sqrt(Dot(x, x))
	for i := range x {
		x[i] /= norm
	}
	a := tensor.RankOne(1, x)
	y := Packed(a, x, nil)
	if d := maxAbsDiff(y, x); d > tol {
		t.Fatalf("rank-one eigenpair violated by %g", d)
	}
	if l := Dot(x, y); math.Abs(l-1) > tol {
		t.Fatalf("lambda = %g, want 1", l)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNaivePanicsOnBadVector(t *testing.T) {
	a := tensor.NewDense(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Naive(a, []float64{1, 2}, nil)
}

func TestPackedPanicsOnBadVector(t *testing.T) {
	a := tensor.NewSymmetric(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Packed(a, []float64{1, 2}, nil)
}

func BenchmarkNaive(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(1))
		a := tensor.Random(n, rng).Dense()
		x := randVec(n, rng)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Naive(a, x, nil)
			}
		})
	}
}

func BenchmarkPacked(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(1))
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Packed(a, x, nil)
			}
		})
	}
}

func sizeName(n int) string {
	return "n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
