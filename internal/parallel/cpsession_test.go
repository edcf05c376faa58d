package parallel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sttsv"
)

// randCPOperator draws a random rank-r symmetric CP operator.
func randCPOperator(t testing.TB, n, r int, rng *rand.Rand) *sttsv.CPOperator {
	t.Helper()
	weights := make([]float64, r)
	vectors := make([][]float64, r)
	for k := 0; k < r; k++ {
		weights[k] = rng.NormFloat64()
		vectors[k] = randVec(n, rng)
	}
	op, err := sttsv.NewCPOperator(weights, vectors)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestCPSessionMatchesChunkedOracle: a P-rank CP session's Apply and
// ApplyBatch must be bit-identical to the sequential ApplyChunked(x, P)
// oracle — the all-reduce sums the per-rank partial projections in rank
// order, which is exactly the chunk order the oracle reproduces — and
// the ternary meters must sum to the 2nr work of one low-rank apply.
func TestCPSessionMatchesChunkedOracle(t *testing.T) {
	const n, r = 101, 5
	rng := rand.New(rand.NewSource(41))
	op := randCPOperator(t, n, r, rng)

	for _, p := range []int{1, 4, 10} {
		s, err := OpenCPSession(op, CPOptions{P: p})
		if err != nil {
			t.Fatal(err)
		}

		x := randVec(n, rng)
		want := op.ApplyChunked(x, p, nil)
		got, err := s.Apply(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Y, want) {
			t.Fatalf("P=%d: CP session Apply differs from ApplyChunked oracle", p)
		}
		var tern int64
		for _, v := range got.Ternary {
			tern += v
		}
		if tern != op.TernaryEquiv() {
			t.Fatalf("P=%d: ternary meters %d, want 2nr = %d", p, tern, op.TernaryEquiv())
		}

		X := [][]float64{randVec(n, rng), randVec(n, rng), randVec(n, rng)}
		gb, err := s.ApplyBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		for l := range X {
			if !bitsEqual(gb.Y[l], op.ApplyChunked(X[l], p, nil)) {
				t.Fatalf("P=%d: CP session ApplyBatch column %d differs from oracle", p, l)
			}
		}

		s.Close()
	}
}

// TestCPSessionCommunicationIsRankIndependent pins the low-rank
// communication bound: per-rank apply traffic is O(r·cols) words,
// independent of n — doubling n must not change any rank's sent words.
func TestCPSessionCommunicationIsRankIndependent(t *testing.T) {
	const r, p = 6, 4
	rng := rand.New(rand.NewSource(42))

	words := func(n int) []int64 {
		op := randCPOperator(t, n, r, rng)
		s, err := OpenCPSession(op, CPOptions{P: p})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Apply(randVec(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.SentWords
	}

	small, large := words(200), words(400)
	for rank := range small {
		if small[rank] != large[rank] {
			t.Fatalf("rank %d: apply traffic changed with n (%d → %d words); CP exchange is not O(r)",
				rank, small[rank], large[rank])
		}
		if small[rank] == 0 && p > 1 {
			t.Fatalf("rank %d: no all-reduce traffic recorded", rank)
		}
	}
}

// TestCPSessionPowerMethod: the CP power method must agree with a dense
// session iterating the expanded tensor (same deterministic seed, same
// convergence tail) to floating-point tolerance, and be bit-reproducible
// across independent CP sessions.
func TestCPSessionPowerMethod(t *testing.T) {
	const n, r = 40, 3
	rng := rand.New(rand.NewSource(43))
	op := randCPOperator(t, n, r, rng)

	cp1, err := OpenCPSession(op, CPOptions{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cp1.Close()
	cp2, err := OpenCPSession(op, CPOptions{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()

	po := PowerOptions{MaxIter: 60, Tol: 1e-12, Seed: 9}
	e1, err := cp1.PowerMethod(po)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cp2.PowerMethod(po)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(e1.Lambda) != math.Float64bits(e2.Lambda) || !bitsEqual(e1.X, e2.X) {
		t.Fatal("CP power method is not bit-reproducible across sessions")
	}

	dense, err := op.Dense()
	if err != nil {
		t.Fatal(err)
	}
	part := sphericalPart(t, 2)
	b := (n + part.M - 1) / part.M
	ds, err := OpenSession(dense, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ed, err := ds.PowerMethod(po)
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Converged || !ed.Converged {
		t.Fatalf("power methods did not converge (cp %v, dense %v)", e1.Converged, ed.Converged)
	}
	if d := math.Abs(e1.Lambda - ed.Lambda); d > 1e-8*(1+math.Abs(ed.Lambda)) {
		t.Fatalf("CP λ=%g, dense λ=%g (diff %g)", e1.Lambda, ed.Lambda, d)
	}
}

// TestCPSessionCrashRecovery: a rank crash on a CP session recovers to
// bit-identical results through the same checkpoint machinery as the
// tetrahedral sessions (the synthetic layout's owned spans are the
// chunks, so dirty-region checkpoints cover exactly the iterate).
func TestCPSessionCrashRecovery(t *testing.T) {
	const n, r, p = 80, 4, 4
	rng := rand.New(rand.NewSource(44))
	op := randCPOperator(t, n, r, rng)

	clean, err := OpenCPSession(op, CPOptions{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	faulty, err := OpenCPSession(op, CPOptions{
		P: p,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 7, Crash: map[int]int{1: 3}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout: 2 * time.Second,
		},
		Recovery: &RecoveryOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	x := randVec(n, rng)
	want, err := clean.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Y, want.Y) {
		t.Fatal("recovered CP Apply differs from crash-free run")
	}

	po := PowerOptions{MaxIter: 12, Seed: 11}
	we, err := clean.PowerMethod(po)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := faulty.PowerMethod(po)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ge.Lambda) != math.Float64bits(we.Lambda) || !bitsEqual(ge.X, we.X) {
		t.Fatal("recovered CP PowerMethod differs from crash-free run")
	}
	if st := faulty.RecoveryStats(); st.Relaunches == 0 {
		t.Error("crash plan triggered no relaunch; recovery untested")
	}
}
