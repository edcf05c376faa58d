// Package partition implements the tetrahedral block partition of §6: the
// assignment of every block of the lower block-tetrahedron of a symmetric
// tensor to exactly one processor, driven by a Steiner (m, r, 3) system,
// together with the compatible distribution of the input and output
// vectors.
//
// Processor p (one per Steiner block R_p) owns:
//
//   - the off-diagonal blocks TB₃(R_p) = {(i,j,k) : i > j > k ∈ R_p}
//     (§6.1.1) — the Steiner property guarantees each off-diagonal block
//     lands on exactly one processor;
//   - a set N_p of non-central diagonal blocks (i,i,k)/(i,k,k) with
//     i, k ∈ R_p, found via a capacitated matching (Hall's theorem /
//     Corollary 6.7 guarantee a perfect, balanced assignment) (§6.1.3);
//   - at most one central diagonal block (i,i,i) with i ∈ R_p, found via a
//     bipartite matching (§6.1.3).
//
// Row block i of each vector is shared by the processors Q_i = {p : i ∈
// R_p} and split evenly among them (§6.1.2).
//
// Row blocks and block coordinates are 0-based here (the paper is
// 1-based); Steiner system points are converted at construction.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/intmath"
	"repro/internal/steiner"
	"repro/internal/tensor"
)

// Coord is a block coordinate (I >= J >= K) in the block tetrahedron.
type Coord struct{ I, J, K int }

// Kind returns the block kind of the coordinate.
func (c Coord) Kind() tensor.BlockKind { return tensor.KindOfBlock(c.I, c.J, c.K) }

// Tetrahedral is a complete tetrahedral block partition.
type Tetrahedral struct {
	// Sys is the generating Steiner system (points 1..M).
	Sys *steiner.System
	// M is the number of row blocks per mode (q²+1 for the spherical
	// family).
	M int
	// P is the number of processors, one per Steiner block.
	P int
	// R is the Steiner block size (q+1 for the spherical family).
	R int

	// Rp[p] lists processor p's row blocks (0-based, sorted): the Steiner
	// block R_p.
	Rp [][]int
	// Np[p] lists processor p's non-central diagonal blocks.
	Np [][]Coord
	// Dp[p] lists processor p's central diagonal blocks (length 0 or 1).
	Dp [][]Coord
	// Qi[i] lists the processors that require row block i (sorted): all p
	// with i ∈ Rp.
	Qi [][]int

	// Weighted records that the diagonal assignment balanced per-block
	// weights (e.g. nnz) instead of block counts; Validate then skips the
	// count-balance invariant (weight balance replaces it) while keeping
	// coverage and admissibility checks.
	Weighted bool

	rpSet []map[int]bool
}

// New builds the partition for a Steiner (m, r, 3) system. The m(m−1)
// non-central diagonal blocks are spread over the processors with loads
// differing by at most one (exactly q each for the spherical family,
// exactly 4 for SQS(8)).
func New(sys *steiner.System) (*Tetrahedral, error) {
	t := newSkeleton(sys)
	if err := t.assignNonCentral(); err != nil {
		return nil, err
	}
	if err := t.assignCentral(); err != nil {
		return nil, err
	}
	return t, nil
}

// newSkeleton builds the Steiner-determined part of the partition — row
// block ownership Rp/Qi and the off-diagonal blocks they imply — leaving
// the diagonal assignment (the only placement freedom §6.1.3 grants) to
// the caller.
func newSkeleton(sys *steiner.System) *Tetrahedral {
	m := sys.N
	p := sys.NumBlocks()
	t := &Tetrahedral{Sys: sys, M: m, P: p, R: sys.R}

	t.Rp = make([][]int, p)
	t.rpSet = make([]map[int]bool, p)
	for pi, blk := range sys.Blocks {
		rp := make([]int, len(blk))
		set := make(map[int]bool, len(blk))
		for i, pt := range blk {
			rp[i] = pt - 1
			set[pt-1] = true
		}
		t.Rp[pi] = rp
		t.rpSet[pi] = set
	}

	t.Qi = make([][]int, m)
	for i := 0; i < m; i++ {
		procs := append([]int(nil), sys.BlocksWithElement(i+1)...)
		sort.Ints(procs)
		t.Qi[i] = procs
	}
	return t
}

// NewSpherical builds the partition from the spherical Steiner system for
// prime power q: m = q²+1 row blocks and P = q(q²+1) processors.
func NewSpherical(q int) (*Tetrahedral, error) {
	sys, err := steiner.Spherical(q)
	if err != nil {
		return nil, err
	}
	return New(sys)
}

// assignNonCentral distributes the m(m−1) non-central diagonal blocks,
// at most ⌈m(m−1)/P⌉ per processor, each to a processor whose R_p contains
// both distinct row indices of the block (§6.1.3). For the spherical
// family the count divides evenly at exactly q per processor; for other
// systems (e.g. the doubled SQS family) the load differs by at most one.
func (t *Tetrahedral) assignNonCentral() error {
	total := t.M * (t.M - 1)
	perProc := intmath.CeilDiv(total, t.P)

	// Items: for each pair a > b, item 2·pairIdx is (a,a,b) and
	// 2·pairIdx+1 is (a,b,b).
	items := make([]Coord, 0, total)
	adj := make([][]int, t.P)
	for a := 1; a < t.M; a++ {
		for b := 0; b < a; b++ {
			hi := len(items)
			items = append(items, Coord{a, a, b}, Coord{a, b, b})
			for _, pi := range t.Sys.BlocksWithPair(a+1, b+1) {
				adj[pi] = append(adj[pi], hi, hi+1)
			}
		}
	}
	caps := make([]int, t.P)
	for i := range caps {
		caps[i] = perProc
	}
	assign, err := flow.AssignWithCapacities(t.P, len(items), caps, adj)
	if err != nil {
		return fmt.Errorf("partition: non-central diagonal assignment: %w", err)
	}
	t.Np = make([][]Coord, t.P)
	for item, proc := range assign {
		t.Np[proc] = append(t.Np[proc], items[item])
	}
	for pi := range t.Np {
		sortCoords(t.Np[pi])
	}
	return nil
}

// assignCentral gives each of the m central diagonal blocks (i,i,i) to a
// distinct processor p with i ∈ R_p (§6.1.3, second application of Hall's
// theorem).
func (t *Tetrahedral) assignCentral() error {
	adj := make([][]int, t.P)
	for pi, rp := range t.Rp {
		for _, i := range rp {
			adj[pi] = append(adj[pi], i)
		}
	}
	caps := make([]int, t.P)
	for i := range caps {
		caps[i] = 1
	}
	assign, err := flow.AssignWithCapacities(t.P, t.M, caps, adj)
	if err != nil {
		return fmt.Errorf("partition: central diagonal assignment: %w", err)
	}
	t.Dp = make([][]Coord, t.P)
	for i, proc := range assign {
		t.Dp[proc] = append(t.Dp[proc], Coord{i, i, i})
	}
	return nil
}

func sortCoords(cs []Coord) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.I != b.I {
			return a.I < b.I
		}
		if a.J != b.J {
			return a.J < b.J
		}
		return a.K < b.K
	})
}

// OffDiagonalBlocks returns TB₃(R_p): processor p's off-diagonal blocks,
// in deterministic order.
func (t *Tetrahedral) OffDiagonalBlocks(p int) []Coord {
	rp := t.Rp[p]
	var out []Coord
	for x := 0; x < len(rp); x++ {
		for y := x + 1; y < len(rp); y++ {
			for z := y + 1; z < len(rp); z++ {
				// rp sorted ascending: rp[z] > rp[y] > rp[x].
				out = append(out, Coord{rp[z], rp[y], rp[x]})
			}
		}
	}
	sortCoords(out)
	return out
}

// Blocks returns every tensor block processor p owns: the extended
// tetrahedral block of Algorithm 5's input (off-diagonal ∪ N_p ∪ D_p).
func (t *Tetrahedral) Blocks(p int) []Coord {
	out := t.OffDiagonalBlocks(p)
	out = append(out, t.Np[p]...)
	out = append(out, t.Dp[p]...)
	sortCoords(out)
	return out
}

// Owns reports whether row block i is in R_p.
func (t *Tetrahedral) Owns(p, i int) bool { return t.rpSet[p][i] }

// SharedRowBlocks returns |R_p ∩ R_p'|: the number of row blocks two
// processors both require, which drives the communication schedule (§7.2).
func (t *Tetrahedral) SharedRowBlocks(p1, p2 int) int {
	n := 0
	for _, i := range t.Rp[p1] {
		if t.rpSet[p2][i] {
			n++
		}
	}
	return n
}

// Chunk is a processor's owned piece of one row block of a vector.
type Chunk struct {
	Proc   int
	Lo, Hi int // local element range [Lo, Hi) within the row block
}

// RowBlockChunks splits row block i of a length-(M·b) vector among the
// processors of Q_i, in Q_i order, as evenly as possible (the first
// len%|Qi| processors receive one extra element). b is the row block
// length.
func (t *Tetrahedral) RowBlockChunks(i, b int) []Chunk {
	procs := t.Qi[i]
	nproc := len(procs)
	base := b / nproc
	rem := b % nproc
	chunks := make([]Chunk, nproc)
	pos := 0
	for idx, p := range procs {
		size := base
		if idx < rem {
			size++
		}
		chunks[idx] = Chunk{Proc: p, Lo: pos, Hi: pos + size}
		pos += size
	}
	return chunks
}

// OwnedRange returns processor p's chunk [lo, hi) of row block i, or ok ==
// false when p ∉ Q_i. It is p's entry of RowBlockChunks(i, b), computed
// from p's position in the sorted Q_i without building the chunk list.
func (t *Tetrahedral) OwnedRange(p, i, b int) (lo, hi int, ok bool) {
	if !t.Owns(p, i) {
		return 0, 0, false
	}
	idx := sort.SearchInts(t.Qi[i], p)
	base, rem := b/len(t.Qi[i]), b%len(t.Qi[i])
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi, true
}

// StorageWords returns the number of tensor words processor p stores for
// block edge b — the §6.1.3 quantity that approaches n³/(6P).
func (t *Tetrahedral) StorageWords(p, b int) int {
	words := 0
	for _, c := range t.Blocks(p) {
		words += tensor.BlockLen(c.Kind(), b)
	}
	return words
}

// Validate checks the partition invariants exhaustively:
// every block of the lower block-tetrahedron is owned by exactly one
// processor; N_p and D_p indices lie within R_p; N_p sizes are balanced;
// each D_p has at most one block; Q_i matches R_p membership.
func (t *Tetrahedral) Validate() error {
	owner := make(map[Coord]int)
	for p := 0; p < t.P; p++ {
		for _, c := range t.Blocks(p) {
			if c.I < c.J || c.J < c.K || c.K < 0 || c.I >= t.M {
				return fmt.Errorf("partition: processor %d owns invalid coord %v", p, c)
			}
			if prev, dup := owner[c]; dup {
				return fmt.Errorf("partition: block %v owned by %d and %d", c, prev, p)
			}
			owner[c] = p
		}
	}
	if want := intmath.Tetrahedral(t.M); len(owner) != want {
		return fmt.Errorf("partition: %d blocks owned, want %d", len(owner), want)
	}

	perProc := intmath.CeilDiv(t.M*(t.M-1), t.P)
	npTotal := 0
	for p := 0; p < t.P; p++ {
		npTotal += len(t.Np[p])
		if !t.Weighted && len(t.Np[p]) > perProc {
			return fmt.Errorf("partition: |N_%d| = %d exceeds %d", p, len(t.Np[p]), perProc)
		}
		for _, c := range t.Np[p] {
			if c.Kind() != tensor.DiagPairHigh && c.Kind() != tensor.DiagPairLow {
				return fmt.Errorf("partition: N_%d contains %v of kind %v", p, c, c.Kind())
			}
			if !t.Owns(p, c.I) || !t.Owns(p, c.K) {
				return fmt.Errorf("partition: N_%d block %v outside R_p", p, c)
			}
		}
		if len(t.Dp[p]) > 1 {
			return fmt.Errorf("partition: |D_%d| = %d > 1", p, len(t.Dp[p]))
		}
		for _, c := range t.Dp[p] {
			if c.Kind() != tensor.Central {
				return fmt.Errorf("partition: D_%d contains %v of kind %v", p, c, c.Kind())
			}
			if !t.Owns(p, c.I) {
				return fmt.Errorf("partition: D_%d block %v outside R_p", p, c)
			}
		}
	}
	if npTotal != t.M*(t.M-1) {
		return fmt.Errorf("partition: %d non-central blocks assigned, want %d", npTotal, t.M*(t.M-1))
	}

	for i := 0; i < t.M; i++ {
		if len(t.Qi[i]) != t.Sys.ElementCount() {
			return fmt.Errorf("partition: |Q_%d| = %d, want %d", i, len(t.Qi[i]), t.Sys.ElementCount())
		}
		for _, p := range t.Qi[i] {
			if !t.Owns(p, i) {
				return fmt.Errorf("partition: Q_%d contains %d but %d ∉ R_p", i, p, i)
			}
		}
	}
	return nil
}
