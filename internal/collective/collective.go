// Package collective layers MPI-style collective operations over the
// machine simulator: the fixed-width All-to-All whose cost the paper
// charges in §7.2, all-gather, reduce-scatter, broadcast, and all-reduce,
// all available on arbitrary process groups (sub-communicators).
//
// The exchange collectives use the P−1-step pairwise-exchange schedule
// that Thakur et al. describe as bandwidth-optimal — the algorithm the
// paper's All-to-All analysis assumes. In step r each member sends to the
// member r positions ahead and receives from the member r positions
// behind, so every rank sends and receives at most one message per step.
//
// Every collective labels the trace events it generates with its operation
// name (machine.Event.Op), so a recorded trace can attribute each word
// moved to the collective that moved it.
package collective

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Group is a sub-communicator: an ordered subset of machine ranks that
// participate in a collective together. Every member must construct an
// equal Group (same ranks) and call the same collectives in the same order.
type Group struct {
	c     *machine.Comm
	ranks []int // sorted global ranks
	me    int   // index of c.Rank() in ranks
}

// NewGroup builds this rank's handle to the group consisting of the given
// global ranks (order-insensitive; duplicates are an error). The calling
// rank must be a member.
func NewGroup(c *machine.Comm, ranks []int) (*Group, error) {
	cp := append([]int(nil), ranks...)
	sort.Ints(cp)
	me := -1
	for i, r := range cp {
		if i > 0 && cp[i-1] == r {
			return nil, fmt.Errorf("collective: duplicate rank %d in group", r)
		}
		if r < 0 || r >= c.Size() {
			return nil, fmt.Errorf("collective: rank %d out of range %d", r, c.Size())
		}
		if r == c.Rank() {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("collective: calling rank %d not in group %v", c.Rank(), cp)
	}
	return &Group{c: c, ranks: cp, me: me}, nil
}

// Comm returns the communicator this group was built over. Callers that
// cache a Group across machine incarnations compare it against their
// current Comm: a group built over a previous epoch's machine would
// unwind straight into that machine's aborted state.
func (g *Group) Comm() *machine.Comm { return g.c }

// World returns the group of all ranks.
func World(c *machine.Comm) *Group {
	ranks := make([]int, c.Size())
	for i := range ranks {
		ranks[i] = i
	}
	g, err := NewGroup(c, ranks)
	if err != nil {
		panic(err) // unreachable: world membership always holds
	}
	return g
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// AllToAllFixedInto performs an all-to-all where every ordered pair
// exchanges exactly width words. This is the MPI_Alltoall-style
// fixed-width collective whose bandwidth the paper charges in §7.2: each
// of the P−1 steps costs width words even between pairs that share
// nothing, which is why Algorithm 5 wired this way costs twice the lower
// bound. send[i] and recv[i] are caller-owned and must all hold exactly
// width words (the caller pads once and reuses the buffers across calls);
// incoming payloads are copied into recv via RecvInto, so a steady-state
// loop performs no allocations. The self slot is copied locally without
// communication.
func (g *Group) AllToAllFixedInto(tag, width int, send, recv [][]float64) {
	g.c.BeginOp("all-to-all")
	defer g.c.EndOp()
	p := g.Size()
	if len(send) != p || len(recv) != p {
		panic(fmt.Sprintf("collective: AllToAllFixedInto with %d/%d buffers for group of %d", len(send), len(recv), p))
	}
	for i := 0; i < p; i++ {
		if len(send[i]) != width || len(recv[i]) != width {
			panic(fmt.Sprintf("collective: AllToAllFixedInto slot %d has %d/%d words, width %d", i, len(send[i]), len(recv[i]), width))
		}
	}
	copy(recv[g.me], send[g.me])
	for r := 1; r < p; r++ {
		to := (g.me + r) % p
		from := (g.me - r + p) % p
		g.c.Send(g.ranks[to], tag, send[to])
		g.c.RecvInto(g.ranks[from], tag, recv[from])
	}
}

// AllGatherV gathers each member's buffer on every member: the result's
// slot i is member i's mine. Buffers may have different lengths.
func (g *Group) AllGatherV(tag int, mine []float64) [][]float64 {
	g.c.BeginOp("all-gather")
	defer g.c.EndOp()
	p := g.Size()
	out := make([][]float64, p)
	out[g.me] = append([]float64(nil), mine...)
	for r := 1; r < p; r++ {
		to := (g.me + r) % p
		from := (g.me - r + p) % p
		g.c.Send(g.ranks[to], tag, mine)
		out[from] = g.c.Recv(g.ranks[from], tag)
	}
	return out
}

// ReduceScatterSum reduces elementwise sums across the group and scatters
// the results: contrib[i] is this member's addend for member i's result,
// and the return value is Σ over members of their contrib[me]. All members
// must pass equal shapes for each destination slot.
func (g *Group) ReduceScatterSum(tag int, contrib [][]float64) []float64 {
	g.c.BeginOp("reduce-scatter")
	defer g.c.EndOp()
	p := g.Size()
	if len(contrib) != p {
		panic(fmt.Sprintf("collective: ReduceScatterSum with %d buffers for group of %d", len(contrib), p))
	}
	acc := append([]float64(nil), contrib[g.me]...)
	for r := 1; r < p; r++ {
		to := (g.me + r) % p
		from := (g.me - r + p) % p
		g.c.Send(g.ranks[to], tag, contrib[to])
		in := g.c.Recv(g.ranks[from], tag)
		if len(in) != len(acc) {
			panic(fmt.Sprintf("collective: ReduceScatterSum shape mismatch: %d vs %d", len(in), len(acc)))
		}
		for i, v := range in {
			acc[i] += v
		}
	}
	return acc
}

// Bcast distributes root's buffer (identified by group index) to all
// members along a binomial tree (⌈log₂ P⌉ rounds). Non-root callers pass
// nil and receive the data; root receives a copy of its own buffer.
func (g *Group) Bcast(tag, root int, data []float64) []float64 {
	g.c.BeginOp("bcast")
	defer g.c.EndOp()
	p := g.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: Bcast root %d of %d", root, p))
	}
	// Work in the rotated space where root is 0. Invariant: at the start
	// of the iteration for a given bit, exactly virtual ranks 0..bit-1
	// hold the data.
	vrank := (g.me - root + p) % p
	if vrank == 0 {
		data = append([]float64(nil), data...)
	}
	for bit := 1; bit < p; bit <<= 1 {
		switch {
		case vrank < bit:
			if vrank+bit < p {
				g.c.Send(g.ranks[(vrank+bit+root)%p], tag, data)
			}
		case vrank < 2*bit:
			data = g.c.Recv(g.ranks[(vrank-bit+root)%p], tag)
		}
	}
	return data
}

// AllReduceSum computes the elementwise sum of every member's buffer on all
// members (reduce to group member 0, then broadcast).
func (g *Group) AllReduceSum(tag int, mine []float64) []float64 {
	g.c.BeginOp("all-reduce")
	defer g.c.EndOp()
	acc := append([]float64(nil), mine...)
	if g.me == 0 {
		for r := 1; r < g.Size(); r++ {
			in := g.c.Recv(g.ranks[r], tag)
			if len(in) != len(acc) {
				panic(fmt.Sprintf("collective: AllReduceSum shape mismatch: %d vs %d", len(in), len(acc)))
			}
			for i, v := range in {
				acc[i] += v
			}
		}
	} else {
		g.c.Send(g.ranks[0], tag, acc)
	}
	return g.Bcast(tag, 0, acc)
}
