package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/sttsv"
)

func sparseSetup(t testing.TB, q, b int, density float64, seed int64) (*sparse.Tensor, parallel.Options) {
	t.Helper()
	part, err := partition.NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(seed))
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
	return sp, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P}
}

// TestSparsePoolBitIdentical: responses served through a sparse pool —
// coalesced or not — must be bit-identical to a solo sparse
// Session.Apply, which the parallel conformance suite in turn pins to
// the dense scalar-kernel session.
func TestSparsePoolBitIdentical(t *testing.T) {
	sp, so := sparseSetup(t, 2, 5, 0.15, 1200)
	n := sp.N
	srb, err := parallel.PackSparseRankBlocks(sp, so.Part, so.B)
	if err != nil {
		t.Fatal(err)
	}
	soloOpts := so
	soloOpts.Sparse = srb
	solo, err := parallel.OpenSession(nil, soloOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()

	pool, err := OpenSparse(sp, Options{
		Session:  so,
		Sessions: 2,
		MaxCols:  4,
		MaxWait:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Dim() != n {
		t.Fatalf("Dim() = %d, want %d", pool.Dim(), n)
	}

	const reqs = 12
	rng := rand.New(rand.NewSource(1201))
	xs := make([][]float64, reqs)
	want := make([][]float64, reqs)
	for i := range xs {
		xs[i] = randVec(n, rng)
		res, err := solo.Apply(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Y
	}

	var wg sync.WaitGroup
	errs := make([]error, reqs)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pool.Apply(fmt.Sprintf("tenant-%d", i%3), xs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !bitsEqual(resp.Y, want[i]) {
				errs[i] = fmt.Errorf("request %d: pooled sparse response differs from solo apply", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSparsePoolSharesPackedBlocks: OpenSparse must pack once and share
// the cache across sessions, and a caller-supplied cache must be used
// as-is (no repacking).
func TestSparsePoolSharesPackedBlocks(t *testing.T) {
	sp, so := sparseSetup(t, 2, 4, 0.2, 1300)
	srb, err := parallel.PackSparseRankBlocks(sp, so.Part, so.B)
	if err != nil {
		t.Fatal(err)
	}
	so.Sparse = srb
	pool, err := OpenSparse(sp, Options{Session: so, Sessions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rng := rand.New(rand.NewSource(1301))
	if _, err := pool.Apply("t", randVec(sp.N, rng)); err != nil {
		t.Fatal(err)
	}
}

// TestCPPoolBitIdentical: a CP pool's responses must be bit-identical to
// the sequential ApplyChunked oracle at the pool's rank count.
func TestCPPoolBitIdentical(t *testing.T) {
	const n, r, ranks = 120, 6, 4
	rng := rand.New(rand.NewSource(1400))
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

	pool, err := OpenCP(op, ranks, Options{
		Sessions: 2,
		MaxCols:  4,
		MaxWait:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Dim() != n {
		t.Fatalf("Dim() = %d, want %d", pool.Dim(), n)
	}

	const reqs = 10
	xs := make([][]float64, reqs)
	want := make([][]float64, reqs)
	for i := range xs {
		xs[i] = randVec(n, rng)
		want[i] = op.ApplyChunked(xs[i], ranks, nil)
	}

	var wg sync.WaitGroup
	errs := make([]error, reqs)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pool.Apply(fmt.Sprintf("tenant-%d", i%2), xs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !bitsEqual(resp.Y, want[i]) {
				errs[i] = fmt.Errorf("request %d: pooled CP response differs from ApplyChunked oracle", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := pool.Metrics()
	if snap.Requests != reqs {
		t.Fatalf("metrics recorded %d requests, want %d", snap.Requests, reqs)
	}
}

// TestOpenVariantsRejectNil pins fail-fast validation on the new
// constructors.
func TestOpenVariantsRejectNil(t *testing.T) {
	if _, err := OpenSparse(nil, Options{}); err == nil {
		t.Error("OpenSparse(nil) accepted")
	}
	if _, err := OpenCP(nil, 2, Options{}); err == nil {
		t.Error("OpenCP(nil) accepted")
	}
}
