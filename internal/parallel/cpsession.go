// Low-rank CP sessions. A symmetric rank-r CP operator A = Σ_k λ_k v_k³
// applies in O(nr) work as y = V·diag(λ)·(Vᵀx)², and its parallel
// structure is nothing like the tetrahedral schedule: rank p owns a
// contiguous chunk of ⌈n/P⌉ rows of V and of the vectors, forms the
// r-word partial projection z_p = V_pᵀx_p locally, all-reduces the
// r-vector (O(r) words per rank — independent of n), and finishes with
// the local rank-r update on its rows. OpenCPSession wires that shape
// into the same resident Session machinery — host-dispatched ops, arena
// staging, phase meters, dirty-region checkpoints, crash recovery — by
// synthesizing a one-row-per-rank layout: rank p's single "row block" is
// its chunk, it owns the whole chunk (no chunk sharing), and the
// point-to-point schedule is empty, leaving the all-reduce as the only
// communication. The result bits equal sttsv.CPOperator.ApplyChunked(x, P)
// exactly: the collective sums the per-rank partials in rank order, which
// is the chunk order the oracle reproduces.
package parallel

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sttsv"
)

// CPOptions configures a low-rank CP session.
type CPOptions struct {
	// P is the rank count. Default 1.
	P int
	// Machine configures the simulated run (see Options.Machine).
	Machine machine.RunConfig
	// MaxCols presizes arenas and the projection buffers for batched
	// applications (ApplyBatch). Defaults to 1; grows on demand.
	MaxCols int
	// Recovery, when non-nil, arms the crash-recovery supervisor exactly
	// as on a dense session; checkpoints cover the owned iterate chunks
	// and the convergence scalars.
	Recovery *RecoveryOptions
}

// cpRuntime is the CP session's operator state: the shared read-only
// operator, each rank's global row span, and a per-rank length-r scratch
// for the weighted squares of the update.
type cpRuntime struct {
	op *sttsv.CPOperator
	lo []int // global row span per rank
	hi []int
	wk [][]float64
}

// OpenCPSession launches a resident P-rank session applying a low-rank
// CP operator. Apply, ApplyBatch and PowerMethod work as on a dense
// session and their outputs are bit-identical to the sequential
// ApplyChunked(x, P) oracle; per-rank state is O(n/P · r), so n ≥ 10⁶
// problems run where a dense tensor could never be materialized.
func OpenCPSession(op *sttsv.CPOperator, copts CPOptions) (*Session, error) {
	if op == nil {
		return nil, fmt.Errorf("parallel: nil CP operator")
	}
	p := copts.P
	if p < 1 {
		p = 1
	}
	b := (op.N + p - 1) / p // chunk width = block edge of the synthetic layout

	// Synthetic one-row-per-rank partition: only P and M are consulted by
	// the session machinery (dispatch width, error messages); the layout
	// below is built by hand, not derived from it.
	part := &partition.Tetrahedral{P: p, M: p}
	part.Rp = make([][]int, p)
	part.Qi = make([][]int, p)
	for r := 0; r < p; r++ {
		part.Rp[r] = []int{r}
		part.Qi[r] = []int{r}
	}

	lay := &sessionLayout{perRank: make([]rankLayout, p), maxChunk: b}
	rt := &cpRuntime{op: op, lo: make([]int, p), hi: make([]int, p), wk: make([][]float64, p)}
	for r := 0; r < p; r++ {
		lo := r * b
		hi := lo + b
		if lo > op.N {
			lo = op.N
		}
		if hi > op.N {
			hi = op.N
		}
		rt.lo[r], rt.hi[r] = lo, hi
		rt.wk[r] = make([]float64, op.R)

		rk := &lay.perRank[r]
		rk.rows = []int{r}
		rk.rowIdx = make([]int, p)
		for i := range rk.rowIdx {
			rk.rowIdx[i] = -1
		}
		rk.rowIdx[r] = 0
		rk.myLo = []int{0}
		rk.myHi = []int{hi - lo}
		rk.steps = []sessStep{} // no scheduled exchange
		rk.maxMsgW = op.R       // sendBuf doubles as the z-partial buffer
	}

	opts := Options{
		Part:     part,
		B:        b,
		Wiring:   WiringP2P,
		Machine:  copts.Machine,
		MaxCols:  copts.MaxCols,
		Recovery: copts.Recovery,
	}
	s := &Session{
		opts:   opts,
		part:   part,
		b:      b,
		padded: p * b,
		n:      op.N,
		cp:     rt,
		lay:    lay,
	}
	maxCols := opts.MaxCols
	if maxCols < 1 {
		maxCols = 1
	}
	s.grow(maxCols)
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// cpProject forms this rank's partial projections for cols staged
// columns into the (zeroed) z buffer: z[l·r+k] = Σ_i V[i,k]·x_l[i] over
// the rank's rows. Counted as (hi−lo)·r ternary-equivalent
// multiplications per column — the projection half of the 2nr apply.
func (s *Session) cpProject(me int, rk *sessionRank, z []float64, cols int) int64 {
	op := s.cp.op
	lo, hi := s.cp.lo[me], s.cp.hi[me]
	r := op.R
	for l := 0; l < cols; l++ {
		op.Project(lo, hi, rk.xRowCol(me, l)[:hi-lo], z[l*r:(l+1)*r])
	}
	return int64(hi-lo) * int64(r) * int64(cols)
}

// cpUpdate finishes the apply on this rank's rows from the all-reduced
// projections: y_l += V·(λ∘z_l²). The update half of the 2nr accounting.
func (s *Session) cpUpdate(me int, rk *sessionRank, sums []float64, cols int) int64 {
	op := s.cp.op
	lo, hi := s.cp.lo[me], s.cp.hi[me]
	r := op.R
	for l := 0; l < cols; l++ {
		op.Update(lo, hi, sums[l*r:(l+1)*r], s.cp.wk[me], rk.yRowCol(me, l)[:hi-lo])
	}
	return int64(hi-lo) * int64(r) * int64(cols)
}

// cpApplyOp is the rank closure of one (possibly batched) CP application:
// stage → local projection → r·cols-word all-reduce → local update →
// publish. The per-rank communication is O(r·cols) words, independent of
// n — the low-rank analogue of the paper's Θ(n/P^{1/3}) bound.
func (s *Session) cpApplyOp(cols int, pr *phaseRecorder, deltas []machine.Meters) func(me int, c *machine.Comm) {
	return func(me int, c *machine.Comm) {
		rk := s.rk[me]
		m0 := c.Meters()
		if rk.world == nil || rk.world.Comm() != c {
			rk.world = collective.World(c)
		}
		rk.stage(s.stageX, cols)
		rk.zeroY()
		z := rk.sendBuf[:s.cp.op.R*cols]
		clear(z)
		pr.local(c, "local", func() int64 { return s.cpProject(me, rk, z, cols) })
		var sums []float64
		pr.comm(c, "all-reduce", func() { sums = rk.world.AllReduceSum(310, z) })
		pr.local(c, "local", func() int64 { return s.cpUpdate(me, rk, sums, cols) })
		rk.publish(s.stageY, cols)
		deltas[me] = c.Meters().Sub(m0)
	}
}

// cpPowerIterOp is the CP power-method iteration: the iterate stays
// distributed in the chunk layout, each iteration is projection →
// all-reduce → update, and the convergence tail (λ and ‖y‖² all-reduce,
// test, normalize) is powerAdvance — the identical code the dense and
// sparse paths run, so convergence semantics cannot drift between
// operator flavors.
func (s *Session) cpPowerIterOp(tol float64, pr *phaseRecorder, st *powerIterState) func(me int, c *machine.Comm) {
	return func(me int, c *machine.Comm) {
		rk := s.rk[me]
		if rk.world == nil || rk.world.Comm() != c {
			rk.world = collective.World(c)
		}
		w := rk.lay.myHi[0]
		copy(rk.xA[:w], rk.chunk[:w])
		rk.zeroY()
		z := rk.sendBuf[:s.cp.op.R]
		clear(z)
		pr.local(c, "local", func() int64 { return s.cpProject(me, rk, z, 1) })
		var sums []float64
		pr.comm(c, "all-reduce", func() { sums = rk.world.AllReduceSum(310, z) })
		pr.local(c, "local", func() int64 { return s.cpUpdate(me, rk, sums, 1) })
		st.stop[me], st.converged[me], st.singular[me] = rk.powerAdvance(c, tol, pr)
	}
}
