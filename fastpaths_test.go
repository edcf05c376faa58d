package sttsv

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sparse"
	internalsttsv "repro/internal/sttsv"
)

func bitsSame(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// openSparseSession packs sp's rank blocks for opts' partition and opens
// a session over them.
func openSparseSession(sp *sparse.Tensor, opts ParallelOptions) (*Session, error) {
	srb, err := parallel.PackSparseRankBlocks(sp, opts.Part, opts.B)
	if err != nil {
		return nil, err
	}
	opts.Sparse = srb
	return OpenSession(nil, opts)
}

// TestFacadeSparseSession: a session over packed sparse rank blocks must
// reproduce, bit for bit, a facade session running the scalar kernel on
// the same tensor stored densely.
func TestFacadeSparseSession(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	const b = 5
	n := part.M * b
	sp, err := sparse.RandomHypergraph(n, 4*n, 17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := openSparseSession(sp, ParallelOptions{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(18))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := OpenSession(sp.Dense(), ParallelOptions{Part: part, B: b, ScalarKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	dres, err := dense.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsSame(res.Y, dres.Y) {
		t.Fatal("sparse session differs from dense session")
	}
}

// TestFacadeWeightedPartition: nnz-weighted assignment must reduce the
// load imbalance of a skewed hypergraph against the facade's uniform
// partition.
func TestFacadeWeightedPartition(t *testing.T) {
	const q, b = 2, 16
	uni, err := NewPartition(q)
	if err != nil {
		t.Fatal(err)
	}
	n := uni.M * b
	sp, err := sparse.SkewedHypergraph(n, 32*n, 1.3, 19)
	if err != nil {
		t.Fatal(err)
	}
	counts := sparse.BlockCounts(sp, b)
	wp, err := partition.NewSphericalWeighted(q, func(c partition.Coord) int64 {
		return counts[[3]int{c.I, c.J, c.K}]
	})
	if err != nil {
		t.Fatal(err)
	}

	loadsOf := func(p *Partition) obs.LoadStats {
		srb, err := parallel.PackSparseRankBlocks(sp, p, b)
		if err != nil {
			t.Fatal(err)
		}
		return obs.ComputeLoadStats(srb.Loads())
	}
	before, after := loadsOf(uni), loadsOf(wp)
	if after.Imbalance > before.Imbalance {
		t.Fatalf("weighted partition worsened imbalance: %.3f → %.3f", before.Imbalance, after.Imbalance)
	}
	if after.Imbalance > 1.3 {
		t.Fatalf("weighted imbalance %.3f exceeds the 1.3 gate", after.Imbalance)
	}
}

// TestFacadeCPSession: a CP session must match the sequential factored
// apply oracle bit for bit.
func TestFacadeCPSession(t *testing.T) {
	const n, r, p = 90, 4, 3
	rng := rand.New(rand.NewSource(20))
	weights := make([]float64, r)
	vectors := make([][]float64, r)
	for k := 0; k < r; k++ {
		weights[k] = rng.NormFloat64()
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vectors[k] = v
	}
	op, err := internalsttsv.NewCPOperator(weights, vectors)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parallel.OpenCPSession(op, parallel.CPOptions{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsSame(res.Y, op.ApplyChunked(x, p, nil)) {
		t.Fatal("CP session differs from ApplyChunked oracle")
	}
}

// TestFacadeFastPathPools: the sparse and CP serving pools must answer,
// the sparse pool bit-identically to a solo sparse session.
func TestFacadeFastPathPools(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	const b = 4
	n := part.M * b
	sp, err := sparse.RandomHypergraph(n, 3*n, 21)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := serve.OpenSparse(sp, serve.Options{Session: ParallelOptions{Part: part, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	rng := rand.New(rand.NewSource(22))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	solo, err := openSparseSession(sp, ParallelOptions{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	want, err := solo.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pool.Apply("tenant", x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsSame(resp.Y, want.Y) {
		t.Fatal("sparse pool response differs from a solo sparse session")
	}

	op, err := internalsttsv.NewCPOperator([]float64{1.5, -0.5}, [][]float64{make([]float64, n), make([]float64, n)})
	if err != nil {
		t.Fatal(err)
	}
	cpPool, err := serve.OpenCP(op, 2, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cpPool.Close()
	if _, err := cpPool.Apply("tenant", x); err != nil {
		t.Fatal(err)
	}
}
