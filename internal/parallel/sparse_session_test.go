package parallel

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// randSparseTensor draws a random symmetric sparse tensor: every packed
// coordinate (i ≥ j ≥ k) is kept with probability density.
func randSparseTensor(t testing.TB, n int, density float64, rng *rand.Rand) *sparse.Tensor {
	t.Helper()
	var entries []sparse.Entry
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= j; k++ {
				if rng.Float64() < density {
					entries = append(entries, sparse.Entry{I: int32(i), J: int32(j), K: int32(k), V: rng.NormFloat64()})
				}
			}
		}
	}
	sp, err := sparse.New(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// sparseSessionPair opens the sparse session under test, over a random
// tensor of dimension n <= M·b, and its oracle: a dense session on the
// materialized tensor running the scalar kernel, whose association order
// the sparse kernels reproduce exactly.
func sparseSessionPair(t testing.TB, q, b, n int, density float64, seed int64) (sp *sparse.Tensor, sparseSess, denseSess *Session) {
	t.Helper()
	part := sphericalPart(t, q)
	rng := rand.New(rand.NewSource(seed))
	sp = randSparseTensor(t, n, density, rng)
	srb, err := PackSparseRankBlocks(sp, part, b)
	if err != nil {
		t.Fatal(err)
	}
	sparseSess, err = OpenSession(nil, Options{Part: part, B: b, Wiring: WiringP2P, Sparse: srb})
	if err != nil {
		t.Fatal(err)
	}
	denseSess, err = OpenSession(sp.Dense(), Options{Part: part, B: b, Wiring: WiringP2P, ScalarKernel: true})
	if err != nil {
		sparseSess.Close()
		t.Fatal(err)
	}
	return sp, sparseSess, denseSess
}

// TestSparseSessionConformance is the parallel sparse conformance grid:
// at q ∈ {2, 3}, a sparse session's Apply, ApplyBatch and PowerMethod
// must be bit-identical to a dense scalar-kernel session on the
// materialized tensor — same schedule, same communication, same local
// association order, so every intermediate (and hence every output bit
// and every logical meter) coincides. The q=2, b=3, n=11 case packs 4
// row blocks against the partition's 5, so its last row block is all
// padding and every block coordinate in it must be skipped.
func TestSparseSessionConformance(t *testing.T) {
	for _, tc := range []struct {
		q, b, n int
		density float64
	}{
		{q: 2, b: 6, n: 30, density: 0.15},
		{q: 3, b: 4, n: 40, density: 0.10},
		{q: 2, b: 3, n: 11, density: 0.3},
	} {
		sp, ss, ds := sparseSessionPair(t, tc.q, tc.b, tc.n, tc.density, int64(900+tc.q))
		rng := rand.New(rand.NewSource(int64(910 + tc.q)))
		n := sp.N

		// Apply: bitwise, and the sparse ternary meters must count the
		// multiplicity-weighted nonzero work, not the dense block volume.
		x := randVec(n, rng)
		got, err := ss.Apply(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.Apply(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Y, want.Y) {
			t.Fatalf("q=%d: sparse Apply differs from dense scalar session", tc.q)
		}
		var sparseTern, denseTern int64
		for r := range got.Ternary {
			sparseTern += got.Ternary[r]
			denseTern += want.Ternary[r]
		}
		if sparseTern <= 0 || sparseTern >= denseTern {
			t.Fatalf("q=%d: sparse ternary %d not in (0, dense %d)", tc.q, sparseTern, denseTern)
		}

		// ApplyBatch: each column bit-identical to the dense batch.
		X := [][]float64{randVec(n, rng), randVec(n, rng), randVec(n, rng)}
		gb, err := ss.ApplyBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := ds.ApplyBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		for l := range X {
			if !bitsEqual(gb.Y[l], wb.Y[l]) {
				t.Fatalf("q=%d: sparse ApplyBatch column %d differs", tc.q, l)
			}
		}

		// PowerMethod: identical iterate trajectory, λ and flags.
		ge, err := ss.PowerMethod(PowerOptions{MaxIter: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		we, err := ds.PowerMethod(PowerOptions{MaxIter: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ge.Lambda) != math.Float64bits(we.Lambda) {
			t.Fatalf("q=%d: sparse power λ=%g, dense scalar λ=%g", tc.q, ge.Lambda, we.Lambda)
		}
		if !bitsEqual(ge.X, we.X) {
			t.Fatalf("q=%d: sparse power iterate differs", tc.q)
		}
		if ge.Iterations != we.Iterations || ge.Converged != we.Converged {
			t.Fatalf("q=%d: sparse power flags differ", tc.q)
		}

		ss.Close()
		ds.Close()
	}
}

// TestSparseSessionCrashRecovery: a rank crash mid-operation on a sparse
// session must recover to bit-identical results — the checkpoint store
// and replay machinery are operator-agnostic.
func TestSparseSessionCrashRecovery(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 6
	n := part.M * b
	rng := rand.New(rand.NewSource(77))
	sp := randSparseTensor(t, n, 0.15, rng)
	srb, err := PackSparseRankBlocks(sp, part, b)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := OpenSession(nil, Options{Part: part, B: b, Wiring: WiringP2P, Sparse: srb})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	faulty, err := OpenSession(nil, Options{
		Part: part, B: b, Wiring: WiringP2P, Sparse: srb,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 7, Crash: map[int]int{1: 4}},
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
		t.Fatal("recovered sparse Apply differs from crash-free run")
	}

	we, err := clean.PowerMethod(PowerOptions{MaxIter: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := faulty.PowerMethod(PowerOptions{MaxIter: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ge.Lambda) != math.Float64bits(we.Lambda) || !bitsEqual(ge.X, we.X) {
		t.Fatal("recovered sparse PowerMethod differs from crash-free run")
	}
	if st := faulty.RecoveryStats(); st.Relaunches == 0 {
		t.Error("crash plan triggered no relaunch; recovery untested")
	}
}

// TestSparseSessionTCPLoopback runs the sparse session over real TCP
// sockets (the loopback backend): the transport must not perturb a
// single output bit relative to the in-memory machine.
func TestSparseSessionTCPLoopback(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 6
	n := part.M * b
	rng := rand.New(rand.NewSource(88))
	sp := randSparseTensor(t, n, 0.15, rng)
	srb, err := PackSparseRankBlocks(sp, part, b)
	if err != nil {
		t.Fatal(err)
	}

	mem, err := OpenSession(nil, Options{Part: part, B: b, Wiring: WiringP2P, Sparse: srb})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	tcp, err := OpenSession(nil, Options{
		Part: part, B: b, Wiring: WiringP2P, Sparse: srb,
		Machine: machine.RunConfig{
			BackendFactory: func() (machine.Backend, error) { return netwire.NewLoopback("tcp") },
			Timeout:        10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	x := randVec(n, rng)
	want, err := mem.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tcp.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Y, want.Y) {
		t.Fatal("sparse Apply over TCP loopback differs from in-memory run")
	}
	var wire int64
	for _, w := range got.Report.WireSentWords {
		wire += w
	}
	if wire == 0 {
		t.Error("TCP loopback reported no wire traffic; backend not engaged")
	}
}

// TestSparseSessionRejectsMisuse pins the open-time validation: a dense
// tensor alongside Sparse, a mismatched cache, and an oversized n must
// all fail fast.
func TestSparseSessionRejectsMisuse(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 4
	rng := rand.New(rand.NewSource(99))
	sp := randSparseTensor(t, part.M*b, 0.2, rng)
	srb, err := PackSparseRankBlocks(sp, part, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(tensor.Random(part.M*b, rng), Options{Part: part, B: b, Sparse: srb}); err == nil {
		t.Error("sparse session with a dense tensor accepted")
	}
	if _, err := OpenSession(nil, Options{Part: part, B: b + 1, Sparse: srb}); err == nil {
		t.Error("mismatched sparse cache accepted")
	}
	if _, err := PackSparseRankBlocks(sp, part, 1); err == nil {
		t.Error("n exceeding the padded dimension accepted")
	}
}
