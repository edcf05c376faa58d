// Package flow implements maximum flow on small directed networks.
//
// The paper assigns q non-central diagonal blocks to every processor
// (§6.1.3) by finding q disjoint matchings, and names the Ford–Fulkerson
// and Hopcroft–Karp algorithms as suitable tools. The capacitated
// formulation used here — source → processor with capacity q, processor →
// block with capacity 1, block → sink with capacity 1 — finds all q
// matchings in one solve. Both Dinic's algorithm (used by default) and the
// basic Ford–Fulkerson method (DFS augmentation, kept for cross-checking)
// are provided.
package flow

import "fmt"

// Network is a directed flow network with integer capacities. Vertices are
// 0-based and created up front.
type Network struct {
	n     int
	heads [][]int // heads[v] lists indices into edges
	edges []edge
}

type edge struct {
	to, cap, flow int
}

// NewNetwork returns a network with n vertices and no edges.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("flow: NewNetwork(%d)", n))
	}
	return &Network{n: n, heads: make([][]int, n)}
}

// AddEdge adds a directed edge u→v with the given capacity and returns its
// id, usable with Flow after a max-flow computation. A reverse edge of
// capacity 0 is added internally.
func (nw *Network) AddEdge(u, v, capacity int) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("flow: AddEdge(%d, %d) out of range %d", u, v, nw.n))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(nw.edges)
	nw.edges = append(nw.edges, edge{to: v, cap: capacity})
	nw.edges = append(nw.edges, edge{to: u, cap: 0})
	nw.heads[u] = append(nw.heads[u], id)
	nw.heads[v] = append(nw.heads[v], id+1)
	return id
}

// Flow returns the flow currently routed on edge id (as returned by
// AddEdge).
func (nw *Network) Flow(id int) int { return nw.edges[id].flow }

// Reset zeroes all flow so another computation can run on the same network.
func (nw *Network) Reset() {
	for i := range nw.edges {
		nw.edges[i].flow = 0
	}
}

// MaxFlowDinic computes the maximum s→t flow with Dinic's algorithm
// (level graph + blocking flow).
func (nw *Network) MaxFlowDinic(s, t int) int {
	if s == t {
		panic("flow: source equals sink")
	}
	level := make([]int, nw.n)
	iter := make([]int, nw.n)
	queue := make([]int, 0, nw.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, id := range nw.heads[v] {
				e := &nw.edges[id]
				if e.cap-e.flow > 0 && level[e.to] < 0 {
					level[e.to] = level[v] + 1
					queue = append(queue, e.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(v, f int) int
	dfs = func(v, f int) int {
		if v == t {
			return f
		}
		for ; iter[v] < len(nw.heads[v]); iter[v]++ {
			id := nw.heads[v][iter[v]]
			e := &nw.edges[id]
			if e.cap-e.flow <= 0 || level[e.to] != level[v]+1 {
				continue
			}
			d := f
			if r := e.cap - e.flow; r < d {
				d = r
			}
			if d = dfs(e.to, d); d > 0 {
				e.flow += d
				nw.edges[id^1].flow -= d
				return d
			}
		}
		return 0
	}

	const inf = int(^uint(0) >> 1)
	total := 0
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := dfs(s, inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// MaxFlowFordFulkerson computes the maximum s→t flow by repeated DFS
// augmentation. It is asymptotically slower than Dinic but simple; tests
// cross-check the two.
func (nw *Network) MaxFlowFordFulkerson(s, t int) int {
	if s == t {
		panic("flow: source equals sink")
	}
	visited := make([]bool, nw.n)
	var dfs func(v, f int) int
	dfs = func(v, f int) int {
		if v == t {
			return f
		}
		visited[v] = true
		for _, id := range nw.heads[v] {
			e := &nw.edges[id]
			if e.cap-e.flow <= 0 || visited[e.to] {
				continue
			}
			d := f
			if r := e.cap - e.flow; r < d {
				d = r
			}
			if d = dfs(e.to, d); d > 0 {
				e.flow += d
				nw.edges[id^1].flow -= d
				return d
			}
		}
		return 0
	}
	const inf = int(^uint(0) >> 1)
	total := 0
	for {
		for i := range visited {
			visited[i] = false
		}
		f := dfs(s, inf)
		if f == 0 {
			return total
		}
		total += f
	}
}

// AssignWithCapacities solves the b-matching problem behind §6.1.3: given
// nLeft agents with per-agent capacity capLeft[i], nRight unit-demand items,
// and admissible pairs edges[i] (item lists per agent), it finds an
// assignment of every item to an admissible agent such that agent i
// receives at most capLeft[i] items. It returns assign[item] = agent, or an
// error when no complete assignment exists.
func AssignWithCapacities(nLeft, nRight int, capLeft []int, adj [][]int) ([]int, error) {
	if len(capLeft) != nLeft || len(adj) != nLeft {
		return nil, fmt.Errorf("flow: capLeft/adj sized %d/%d, want %d", len(capLeft), len(adj), nLeft)
	}
	// Vertices: 0 = source, 1..nLeft = agents, nLeft+1..nLeft+nRight =
	// items, last = sink.
	s := 0
	t := nLeft + nRight + 1
	nw := NewNetwork(nLeft + nRight + 2)
	for i := 0; i < nLeft; i++ {
		nw.AddEdge(s, 1+i, capLeft[i])
	}
	type pairEdge struct{ agent, item, id int }
	var pairs []pairEdge
	for i, items := range adj {
		for _, it := range items {
			if it < 0 || it >= nRight {
				return nil, fmt.Errorf("flow: item %d out of range %d", it, nRight)
			}
			id := nw.AddEdge(1+i, 1+nLeft+it, 1)
			pairs = append(pairs, pairEdge{agent: i, item: it, id: id})
		}
	}
	for j := 0; j < nRight; j++ {
		nw.AddEdge(1+nLeft+j, t, 1)
	}
	got := nw.MaxFlowDinic(s, t)
	if got != nRight {
		return nil, fmt.Errorf("flow: assignment incomplete: flow %d of %d items", got, nRight)
	}
	assign := make([]int, nRight)
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range pairs {
		if nw.Flow(p.id) == 1 {
			assign[p.item] = p.agent
		}
	}
	for j, a := range assign {
		if a == -1 {
			return nil, fmt.Errorf("flow: internal error: item %d unassigned despite full flow", j)
		}
	}
	return assign, nil
}
