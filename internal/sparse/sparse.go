// Package sparse provides a coordinate-format symmetric 3-tensor and an
// STTSV kernel over it. The hypergraph workloads that motivate the paper's
// eigenvector application (§1) are extremely sparse — a 3-uniform
// hypergraph on n vertices has O(n) to O(n²) hyperedges versus the
// C(n+2,3) entries of dense packed storage — so a production STTSV library
// needs a sparse path: work and memory proportional to the number of
// nonzeros instead of n³/6.
//
// Entries are stored once per multiset of indices (sorted i >= j >= k),
// and the kernel applies the same permutation-multiplicity update rules as
// Algorithm 4, so Apply agrees exactly with the dense kernels on the same
// tensor.
package sparse

import (
	"fmt"
	"math"

	"repro/internal/intmath"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// Entry is one stored nonzero with sorted indices I >= J >= K. Its
// coordinates are int32, so an entry is 24 bytes and a tensor's
// dimension is at most 2³¹−1.
type Entry struct {
	I, J, K int32
	V       float64
}

// Tensor is a symmetric 3-tensor in coordinate format. Entries are unique
// per index multiset and kept sorted for deterministic iteration.
type Tensor struct {
	N       int
	entries []Entry
}

// checkDim rejects a dimension whose coordinates do not fit in an
// Entry's int32 fields.
func checkDim(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("sparse: dimension %d exceeds the int32 coordinate range", n)
	}
	return nil
}

// New builds a sparse symmetric tensor from (possibly unsorted-index)
// coordinate data. Duplicate multisets are an error; indices must lie in
// [0, n), and n must fit in int32.
func New(n int, coords []Entry) (*Tensor, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	t := &Tensor{N: n, entries: make([]Entry, 0, len(coords))}
	for _, e := range coords {
		i, j, k := intmath.SortTriple(int(e.I), int(e.J), int(e.K))
		if k < 0 || i >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d,%d) out of range [0,%d)", e.I, e.J, e.K, n)
		}
		t.entries = append(t.entries, Entry{I: int32(i), J: int32(j), K: int32(k), V: e.V})
	}
	sortEntries(t.entries)
	for i := 1; i < len(t.entries); i++ {
		a, b := t.entries[i-1], t.entries[i]
		if a.I == b.I && a.J == b.J && a.K == b.K {
			return nil, fmt.Errorf("sparse: duplicate entry (%d,%d,%d)", a.I, a.J, a.K)
		}
	}
	return t, nil
}

// FromPacked converts a packed symmetric tensor, keeping entries with
// |value| strictly greater than threshold. A negative threshold is
// clamped to zero and therefore means "keep every nonzero": explicitly
// stored zeros are never kept, and entries with |value| exactly equal to
// a non-negative threshold are dropped (strict inequality).
func FromPacked(a *tensor.Symmetric, threshold float64) *Tensor {
	if threshold < 0 {
		threshold = 0
	}
	var coords []Entry
	a.ForEach(func(i, j, k int, v float64) {
		if v > threshold || v < -threshold {
			coords = append(coords, Entry{I: int32(i), J: int32(j), K: int32(k), V: v})
		}
	})
	t, err := New(a.N, coords)
	if err != nil {
		panic("sparse: FromPacked produced invalid coordinates: " + err.Error())
	}
	return t
}

// FromHypergraph builds the sparse adjacency tensor of a 3-uniform
// hypergraph directly (entries 1/2 per hyperedge, the centrality
// normalization of package tensor).
func FromHypergraph(n int, edges [][3]int) (*Tensor, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	coords := make([]Entry, 0, len(edges))
	for ei, e := range edges {
		i, j, k := intmath.SortTriple(e[0], e[1], e[2])
		if k < 0 || i >= n {
			return nil, fmt.Errorf("sparse: edge %d = %v out of range [0,%d)", ei, e, n)
		}
		if i == j || j == k {
			return nil, fmt.Errorf("sparse: edge %d = %v has repeated vertices", ei, e)
		}
		coords = append(coords, Entry{I: int32(i), J: int32(j), K: int32(k), V: 0.5})
	}
	return New(n, coords)
}

// NNZ returns the number of stored entries.
func (t *Tensor) NNZ() int { return len(t.entries) }

// Entries returns a copy of the stored entries in sorted order. Mutating
// the returned slice cannot corrupt the tensor's sorted/unique invariant;
// use ForEach for zero-copy read-only iteration.
func (t *Tensor) Entries() []Entry {
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

// ForEach visits the stored entries in sorted (I,J,K) order without
// copying. The callback must not retain or mutate tensor state.
func (t *Tensor) ForEach(fn func(e Entry)) {
	for _, e := range t.entries {
		fn(e)
	}
}

// Dense expands to packed symmetric storage.
func (t *Tensor) Dense() *tensor.Symmetric {
	out := tensor.NewSymmetric(t.N)
	for _, e := range t.entries {
		out.Set(int(e.I), int(e.J), int(e.K), e.V)
	}
	return out
}

// Apply computes y = A ×₂ x ×₃ x in O(nnz) work using the Algorithm 4
// multiplicity rules per stored entry.
func (t *Tensor) Apply(x []float64, stats *sttsv.Stats) []float64 {
	if len(x) != t.N {
		panic(fmt.Sprintf("sparse: vector length %d, dimension %d", len(x), t.N))
	}
	y := make([]float64, t.N)
	var count int64
	for _, e := range t.entries {
		i, j, k, v := e.I, e.J, e.K, e.V
		switch {
		case i > j && j > k:
			y[i] += 2 * v * x[j] * x[k]
			y[j] += 2 * v * x[i] * x[k]
			y[k] += 2 * v * x[i] * x[j]
			count += 3
		case i == j && j > k:
			y[i] += 2 * v * x[i] * x[k]
			y[k] += v * x[i] * x[i]
			count += 2
		case i > j && j == k:
			y[i] += v * x[j] * x[j]
			y[j] += 2 * v * x[i] * x[j]
			count += 2
		default:
			y[i] += v * x[i] * x[i]
			count++
		}
	}
	if stats != nil {
		stats.TernaryMults += count
	}
	return y
}

// STTSV adapts Apply to the hopm.STTSV function shape.
func (t *Tensor) STTSV() func(x []float64) []float64 {
	return func(x []float64) []float64 { return t.Apply(x, nil) }
}
