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
// point-to-point schedule is empty. The session's rank step is then
// project → all-reduce → update instead of gather → contribute →
// reduce-scatter, and the all-reduce is the only communication. The
// result bits equal sttsv.CPOperator.ApplyChunked(x, P) exactly: the
// collective sums the per-rank partials in rank order, which is the chunk
// order the oracle reproduces.
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
	p := max(copts.P, 1)
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

	lay := &sessionLayout{perRank: make([]rankLayout, p)}
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

	s := &Session{
		opts: Options{
			Part:     part,
			B:        b,
			Machine:  copts.Machine,
			MaxCols:  copts.MaxCols,
			Recovery: copts.Recovery,
		},
		part:   part,
		b:      b,
		padded: p * b,
		n:      op.N,
		step:   newRankStep(rt.step, "local", "all-reduce"),
		lay:    lay,
	}
	return s.open()
}

// step is the CP session's rank step: project the rank's rows of the cols
// staged columns (z[l·r+k] = Σ_i V[i,k]·x_l[i]), all-reduce the r·cols
// partial projections under tag 310, then update the rank's rows,
// y_l += V·(λ∘z_l²). Each half counts (hi−lo)·r ternary-equivalent
// multiplications per column, the 2nr apply. The per-rank communication
// is O(r·cols) words, independent of n — the low-rank analogue of the
// paper's Θ(n/P^{1/3}) bound.
func (rt *cpRuntime) step(rk *sessionRank, c *machine.Comm, cols int, pr *phaseRecorder) {
	me := c.Rank()
	op, lo, hi := rt.op, rt.lo[me], rt.hi[me]
	r := op.R
	mults := int64(hi-lo) * int64(r) * int64(cols)
	rk.zeroY()
	z := rk.sendBuf[:r*cols]
	clear(z)
	pr.local(c, "local", func() int64 {
		for l := 0; l < cols; l++ {
			op.Project(lo, hi, rk.xRowCol(me, l)[:hi-lo], z[l*r:(l+1)*r])
		}
		return mults
	})
	var sums []float64
	pr.comm(c, "all-reduce", func() { sums = collective.AllReduceSum(c, 310, z) })
	pr.local(c, "local", func() int64 {
		for l := 0; l < cols; l++ {
			op.Update(lo, hi, sums[l*r:(l+1)*r], rt.wk[me], rk.yRowCol(me, l)[:hi-lo])
		}
		return mults
	})
}
