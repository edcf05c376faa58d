// Package collective layers MPI-style collective operations over the
// machine simulator: all-gather, reduce-scatter, broadcast, and
// all-reduce. Each is a function of a rank's *machine.Comm and runs over
// all P ranks: every rank calls the same collectives in the same order.
// (Algorithm 5's fixed-width All-to-All is not here: package parallel
// lays it out as pairwise steps of its session exchange.)
//
// All-gather and reduce-scatter use the P−1-step pairwise-exchange
// schedule that Thakur et al. describe as bandwidth-optimal. In step r
// each rank sends to the rank r positions ahead and receives from the
// rank r positions behind, so every rank sends and receives at most one
// message per step.
//
// Every collective labels the trace events it generates with its operation
// name (machine.Event.Op), so a recorded trace can attribute each word
// moved to the collective that moved it.
package collective

import (
	"fmt"

	"repro/internal/machine"
)

// AllGatherV gathers each rank's buffer on every rank: the result's slot
// i is rank i's mine. Buffers may have different lengths.
func AllGatherV(c *machine.Comm, tag int, mine []float64) [][]float64 {
	c.BeginOp("all-gather")
	defer c.EndOp()
	p, me := c.Size(), c.Rank()
	out := make([][]float64, p)
	out[me] = append([]float64(nil), mine...)
	for r := 1; r < p; r++ {
		to := (me + r) % p
		from := (me - r + p) % p
		c.Send(to, tag, mine)
		out[from] = c.Recv(from, tag)
	}
	return out
}

// ReduceScatterSum reduces elementwise sums across the ranks and scatters
// the results: contrib[i] is this rank's addend for rank i's result, and
// the return value is Σ over ranks of their contrib[me]. All ranks must
// pass equal shapes for each destination slot.
func ReduceScatterSum(c *machine.Comm, tag int, contrib [][]float64) []float64 {
	c.BeginOp("reduce-scatter")
	defer c.EndOp()
	p, me := c.Size(), c.Rank()
	if len(contrib) != p {
		panic(fmt.Sprintf("collective: ReduceScatterSum with %d buffers for %d ranks", len(contrib), p))
	}
	acc := append([]float64(nil), contrib[me]...)
	for r := 1; r < p; r++ {
		to := (me + r) % p
		from := (me - r + p) % p
		c.Send(to, tag, contrib[to])
		in := c.Recv(from, tag)
		if len(in) != len(acc) {
			panic(fmt.Sprintf("collective: ReduceScatterSum shape mismatch: %d vs %d", len(in), len(acc)))
		}
		for i, v := range in {
			acc[i] += v
		}
	}
	return acc
}

// Bcast distributes root's buffer to all ranks along a binomial tree
// (⌈log₂ P⌉ rounds). Non-root callers pass nil and receive the data;
// root receives a copy of its own buffer.
func Bcast(c *machine.Comm, tag, root int, data []float64) []float64 {
	c.BeginOp("bcast")
	defer c.EndOp()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: Bcast root %d of %d", root, p))
	}
	// Work in the rotated space where root is 0. Invariant: at the start
	// of the iteration for a given bit, exactly virtual ranks 0..bit-1
	// hold the data.
	vrank := (c.Rank() - root + p) % p
	if vrank == 0 {
		data = append([]float64(nil), data...)
	}
	for bit := 1; bit < p; bit <<= 1 {
		switch {
		case vrank < bit:
			if vrank+bit < p {
				c.Send((vrank+bit+root)%p, tag, data)
			}
		case vrank < 2*bit:
			data = c.Recv((vrank-bit+root)%p, tag)
		}
	}
	return data
}

// AllReduceSum computes the elementwise sum of every rank's buffer on all
// ranks (reduce to rank 0, then broadcast).
func AllReduceSum(c *machine.Comm, tag int, mine []float64) []float64 {
	c.BeginOp("all-reduce")
	defer c.EndOp()
	acc := append([]float64(nil), mine...)
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			in := c.Recv(r, tag)
			if len(in) != len(acc) {
				panic(fmt.Sprintf("collective: AllReduceSum shape mismatch: %d vs %d", len(in), len(acc)))
			}
			for i, v := range in {
				acc[i] += v
			}
		}
	} else {
		c.Send(0, tag, acc)
	}
	return Bcast(c, tag, 0, acc)
}
