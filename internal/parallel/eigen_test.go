package parallel

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/tensor"
)

func TestDistributedPowerMethodRankOne(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Cos(float64(2*i + 1))
	}
	la.Normalize(v)
	a := tensor.RankOne(3, v)
	res, err := RunPowerMethod(a, Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 100, Tol: 1e-13, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Lambda-3) > 1e-8 {
		t.Fatalf("lambda = %g, want 3", res.Lambda)
	}
	if a := math.Abs(la.Dot(res.X, v)); math.Abs(a-1) > 1e-7 {
		t.Fatalf("alignment %g", a)
	}
	if math.Abs(la.Norm(res.X)-1) > 1e-9 {
		t.Fatalf("‖x‖ = %g", la.Norm(res.X))
	}
}

func TestDistributedPowerMethodMatchesSequential(t *testing.T) {
	// The distributed iteration must track the sequential power method
	// exactly (same start, same updates), so the eigenvalues agree.
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	v1 := make([]float64, n)
	v2 := make([]float64, n)
	v1[3] = 1
	v2[17] = 1
	a, err := tensor.CP([]float64{5, 2}, [][]float64{v1, v2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPowerMethod(a, Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 300, Tol: 1e-13, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.Lambda-5) > 1e-8 {
		t.Fatalf("lambda = %g converged=%v, want 5", res.Lambda, res.Converged)
	}
}

func TestDistributedPowerMethodCommPerIteration(t *testing.T) {
	// Per iteration: two optimal exchanges plus the O(1)-word all-reduce.
	part := sphericalPart(t, 2)
	b := q2b(2)
	n := part.M * b
	v := make([]float64, n)
	v[0] = 1
	a := tensor.RankOne(1, v)
	res, err := RunPowerMethod(a, Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 50, Tol: 1e-13, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := 2
	perVector := int64(n*(q+1)/(q*q+1) - n/part.P)
	// Max sent: iterations × (2 per-vector exchanges + all-reduce share).
	// The all-reduce adds at most 2 + log contributions of 2 words.
	maxAllowed := int64(res.Iterations) * (2*perVector + 8)
	if got := res.Report.MaxSentWords(); got > maxAllowed {
		t.Fatalf("max sent %d exceeds budget %d over %d iterations", got, maxAllowed, res.Iterations)
	}
}

func q2b(q int) int { return q * (q + 1) }

func TestDistributedPowerMethodValidation(t *testing.T) {
	part := sphericalPart(t, 2)
	a := tensor.NewSymmetric(part.M * 6)
	if _, err := RunPowerMethod(nil, Options{Part: part, B: 6}, PowerOptions{}); err == nil {
		t.Error("nil tensor accepted")
	}
	if _, err := RunPowerMethod(a, Options{Part: nil, B: 6}, PowerOptions{}); err == nil {
		t.Error("nil partition accepted")
	}
	// The All-to-All is a layout like the schedule, so the power method
	// runs on both wirings; only an unknown wiring is refused.
	if _, err := RunPowerMethod(a, Options{Part: part, B: 6, Wiring: WiringAllToAll}, PowerOptions{MaxIter: 2}); err != nil {
		t.Errorf("all-to-all wiring: %v", err)
	}
	if _, err := RunPowerMethod(a, Options{Part: part, B: 6, Wiring: Wiring(7)}, PowerOptions{}); err == nil {
		t.Error("unknown wiring accepted")
	}
	if _, err := RunPowerMethod(a, Options{Part: part, B: 0}, PowerOptions{}); err == nil {
		t.Error("bad block edge accepted")
	}
}

func TestDistributedPowerMethodZeroTensor(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	a := tensor.NewSymmetric(part.M * b)
	res, err := RunPowerMethod(a, Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 10, Tol: 1e-13, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda != 0 {
		t.Fatalf("zero tensor lambda = %g", res.Lambda)
	}
}
