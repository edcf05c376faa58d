package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// RandomHypergraph generates a 3-uniform hypergraph adjacency tensor
// with the given number of hyperedges, scaling to n ≥ 10⁶ and nnz ≥ 10⁷
// where a rejection-sampling generator's dedup map would dominate. It
// draws distinct "offset families" (o1, o2) with 1 <= o1 < o2 < n and
// emits the translates {v, v+o1, v+o2}: triples from different families
// differ in their index gaps and triples within a family differ in v,
// so the construction is collision-free — no dedup structure, O(nnz)
// memory, and no sort: the families are merged in (i, j, k) order as
// they are emitted (see mergeFamilies).
func RandomHypergraph(n, edges int, seed int64) (*Tensor, error) {
	if n < 3 {
		return nil, fmt.Errorf("sparse: hypergraph needs n >= 3, got %d", n)
	}
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if edges < 0 {
		return nil, fmt.Errorf("sparse: negative edge count %d", edges)
	}
	rng := rand.New(rand.NewSource(seed))
	type offsets struct{ o1, o2 int }
	seen := make(map[offsets]bool)
	var fams []family
	placed := 0
	attempts := 0
	for placed < edges {
		if attempts++; attempts > 1000+16*edges/(n/2+1)+len(seen)*4 {
			return nil, fmt.Errorf("sparse: could not place %d edges on n=%d (families exhausted)", edges, n)
		}
		o1 := 1 + rng.Intn(n-2)
		o2 := o1 + 1 + rng.Intn(n-1-o1)
		if seen[offsets{o1, o2}] {
			continue
		}
		seen[offsets{o1, o2}] = true
		take := n - o2 // translates that fit without wraparound
		if rem := edges - placed; take > rem {
			take = rem
		}
		fams = append(fams, family{o1: o1, o2: o2, end: o2 + take})
		placed += take
	}
	return &Tensor{N: n, entries: mergeFamilies(fams, placed)}, nil
}

// family is one translate family of RandomHypergraph: the entries
// (i, i−o2+o1, i−o2) for o2 <= i < end, one per row i.
type family struct{ o1, o2, end int }

// compareInRow orders two families' entries of one row i: by j = i−(o2−o1),
// then k = i−o2, so by gap o2−o1 descending, then o2 descending. The
// order does not depend on i, and distinct families never tie.
func compareInRow(a, b family) int {
	if c := cmp.Compare(b.o2-b.o1, a.o2-a.o1); c != 0 {
		return c
	}
	return cmp.Compare(b.o2, a.o2)
}

// mergeFamilies emits the families' nnz entries in (i, j, k) order
// without a comparison sort of the entries. Each family holds at most
// one entry per row i, and entries of equal i order by family
// (compareInRow), so a sweep of i over the families active at i, kept
// in that order, merges them: O(nnz + n) work, plus inserting each
// family once.
func mergeFamilies(fams []family, nnz int) []Entry {
	entries := make([]Entry, 0, nnz)
	slices.SortFunc(fams, func(a, b family) int { return cmp.Compare(a.o2, b.o2) })
	active := make([]family, 0, len(fams))
	for next, i := 0, 0; next < len(fams) || len(active) > 0; i++ {
		for ; next < len(fams) && fams[next].o2 == i; next++ {
			at, _ := slices.BinarySearchFunc(active, fams[next], compareInRow)
			active = slices.Insert(active, at, fams[next])
		}
		live := active[:0]
		for _, f := range active {
			if i < f.end {
				entries = append(entries, Entry{I: int32(i), J: int32(i - f.o2 + f.o1), K: int32(i - f.o2), V: 0.5})
				live = append(live, f)
			}
		}
		active = live
	}
	return entries
}

// SkewedHypergraph generates a hypergraph whose edges concentrate on
// low-index vertices: each vertex is drawn as ⌊n·u^skew⌋ for uniform u,
// so skew > 1 hot-spots the low diagonal blocks — the adversarial input
// for nnz-aware partition weighting. Rejection sampling with a dedup
// map; intended for moderate sizes (benchmarks and tests), not the 10⁷
// nnz regime RandomHypergraph covers.
func SkewedHypergraph(n, edges int, skew float64, seed int64) (*Tensor, error) {
	if n < 3 {
		return nil, fmt.Errorf("sparse: hypergraph needs n >= 3, got %d", n)
	}
	if err := checkDim(n); err != nil {
		return nil, err
	}
	if skew <= 0 {
		return nil, fmt.Errorf("sparse: skew must be positive, got %g", skew)
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func() int {
		u := rng.Float64()
		v := int(float64(n) * math.Pow(u, skew))
		if v >= n {
			v = n - 1
		}
		return v
	}
	seen := make(map[[3]int]bool, edges)
	t := &Tensor{N: n, entries: make([]Entry, 0, edges)}
	attempts := 0
	for len(t.entries) < edges {
		if attempts++; attempts > 100*edges+1000 {
			return nil, fmt.Errorf("sparse: could not place %d distinct skewed edges on n=%d", edges, n)
		}
		a, b, c := draw(), draw(), draw()
		i, j, k := a, b, c
		if i < j {
			i, j = j, i
		}
		if j < k {
			j, k = k, j
		}
		if i < j {
			i, j = j, i
		}
		if i == j || j == k {
			continue
		}
		key := [3]int{i, j, k}
		if seen[key] {
			continue
		}
		seen[key] = true
		t.entries = append(t.entries, Entry{I: int32(i), J: int32(j), K: int32(k), V: 0.5})
	}
	sortEntries(t.entries)
	return t, nil
}

// sortEntries sorts entries by (I, J, K).
func sortEntries(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		if c := cmp.Compare(a.J, b.J); c != 0 {
			return c
		}
		return cmp.Compare(a.K, b.K)
	})
}
