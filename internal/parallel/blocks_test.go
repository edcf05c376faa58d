package parallel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// TestRunWithCachedBlocks: supplying pre-packed rank blocks must reproduce
// the self-extracting run bit-for-bit (same block sets, same kernel order)
// while skipping re-extraction.
func TestRunWithCachedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	part := sphericalPart(t, 2) // m=5, P=10
	b := 6
	n := part.M * b
	a := tensor.Random(n, rng)
	x := randVec(n, rng)

	plain, err := Run(a, x, Options{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ { // the cache survives repeated applications
		cached, err := Run(a, x, Options{Part: part, B: b, Blocks: rb})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Y {
			if math.Float64bits(cached.Y[i]) != math.Float64bits(plain.Y[i]) {
				t.Fatalf("rep %d: y[%d] bits differ between cached and plain run", rep, i)
			}
		}
	}
	if want := sttsv.Packed(a, x, nil); maxAbsDiff(plain.Y, want) > tol {
		t.Fatal("run differs from Algorithm 4")
	}
}

// TestRunRejectsMismatchedBlocks: a cache built for a different block edge
// or tensor must be rejected, not silently misused.
func TestRunRejectsMismatchedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	a := tensor.Random(n, rng)
	x := randVec(n, rng)

	rb, err := PackRankBlocks(a, part, b-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, x, Options{Part: part, B: b, Blocks: rb}); err == nil {
		t.Fatal("mismatched block edge accepted")
	}
	rbNil, err := PackRankBlocks(nil, part, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, x, Options{Part: part, B: b, Blocks: rbNil}); err == nil {
		t.Fatal("cache packed from nil tensor accepted for a tensor run")
	}
}

// TestPowerMethodWithCachedBlocks: the distributed HOPM accepts the same
// block cache.
func TestPowerMethodWithCachedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	part := sphericalPart(t, 2)
	b := 4
	n := part.M * b
	// A near-rank-one tensor so the power method converges quickly.
	v := randVec(n, rng)
	norm := 0.0
	for _, t := range v {
		norm += t * t
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	a := tensor.RankOne(3, v)

	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunPowerMethod(a, Options{Part: part, B: b}, PowerOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunPowerMethod(a, Options{Part: part, B: b, Blocks: rb}, PowerOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !cached.Converged {
		t.Fatalf("convergence: plain=%v cached=%v", plain.Converged, cached.Converged)
	}
	if d := math.Abs(plain.Lambda - cached.Lambda); d > 1e-8 {
		t.Fatalf("lambda differs by %g between plain and cached runs", d)
	}
}

// TestMTTKRPWithCachedBlocks: the multi-vector product reuses the cache
// across all r columns.
func TestMTTKRPWithCachedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	part := sphericalPart(t, 2)
	b := 4
	n := part.M * b
	r := 3
	a := tensor.Random(n, rng)
	xm := la.NewMatrix(n, r)
	for i := range xm.Data {
		xm.Data[i] = rng.NormFloat64()
	}

	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := RunMTTKRP(a, xm, r, Options{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	cached, _, err := RunMTTKRP(a, xm, r, Options{Part: part, B: b, Blocks: rb})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for l := 0; l < r; l++ {
			if d := math.Abs(plain.At(i, l) - cached.At(i, l)); d > tol {
				t.Fatalf("Y[%d,%d] differs by %g", i, l, d)
			}
		}
	}
}

// packedSink keeps BenchmarkPackRankBlocks' result live.
var packedSink *RankBlocks

// BenchmarkPackRankBlocks times a dense session's set-up extraction at
// perfbench power's shape (q=2, P=10, b=24, n=120): every rank copies its
// ≈ n³/6P words out of the packed lower tetrahedron.
func BenchmarkPackRankBlocks(b *testing.B) {
	part := sphericalPart(b, 2)
	const blockEdge = 24
	a := tensor.Random(part.M*blockEdge, rand.New(rand.NewSource(7)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb, err := PackRankBlocks(a, part, blockEdge)
		if err != nil {
			b.Fatal(err)
		}
		packedSink = rb
	}
}

// sparsePackedSink keeps BenchmarkPackSparseRankBlocks' result live.
var sparsePackedSink *SparseRankBlocks

// BenchmarkPackSparseRankBlocks times a sparse session's set-up packing
// at perfbench sparse's shape (q=3, P=30, b=1,500, n=15,000, 360,000
// hyperedges): one counting sort of the nonzeros into blocks, then every
// rank's block selection.
func BenchmarkPackSparseRankBlocks(b *testing.B) {
	part := sphericalPart(b, 3)
	const blockEdge = 1500
	n := part.M * blockEdge
	sp, err := sparse.SkewedHypergraph(n, 24*n, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srb, err := PackSparseRankBlocks(sp, part, blockEdge)
		if err != nil {
			b.Fatal(err)
		}
		sparsePackedSink = srb
	}
}
