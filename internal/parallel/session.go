package parallel

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// Session is a resident parallel STTSV engine: it launches the P simulated
// ranks once against a fixed (tensor, partition, schedule, B, wiring) and
// serves a stream of operations — Apply, ApplyBatch, PowerMethod, MTTKRP —
// until Close. Between operations the ranks park on a host-fed op queue
// (Comm.AwaitHost), so the machine, its transports, the packed tensor
// blocks, and every pack/unpack buffer survive from one application to the
// next. Every operation wraps one rank step, chosen at open (see
// rankStep): gather → contribute → reduce-scatter for dense and sparse
// sessions, project → all-reduce → update for CP sessions. After one
// warm-up application the per-rank exchange path (pack → Send → RecvInto
// → unpack) performs no allocations. Nothing but messages orders the
// ranks: each step of the wiring's layout sends under its own tag, and
// every rank posts all of its messages for a phase before it receives its
// peers' in step order. A message that arrives before its Recv waits in
// the receiving Comm.
//
// Results are bit-identical to the one-shot Run/RunPowerMethod/RunMTTKRP
// (which are implemented on top of Session), and each operation's Result
// carries exactly the meters a fresh run would: per-rank counter snapshots
// are taken at the op boundaries and differenced.
//
// A Session is not safe for concurrent use: operations are dispatched one
// at a time by a single host goroutine.
type Session struct {
	opts   Options
	part   *partition.Tetrahedral
	b      int
	padded int
	n      int // logical operator dimension; 0 when unknown (nil tensor)

	step rankStep // what a rank computes for one application
	lay  *sessionLayout

	maxCols int
	rk      []*sessionRank
	stageX  [][]float64 // host staging, maxCols × padded
	stageY  [][]float64

	cur   *launch          // current machine incarnation
	rec   *RecoveryOptions // nil: fail fast on any crash
	ck    *ckStore         // nil when fail-fast
	stats RecoveryStats
	// att holds the running dispatch attempt's phase counters, sized at
	// open for the power method's labels and lent to one operation at a
	// time (see phaseRecorder).
	att phaseTable

	inflight atomic.Bool
	report   *machine.Report
	closed   bool
	closeErr error
}

// sessionOp is one host-dispatched operation: every rank runs the closure,
// and the last one to finish releases the host.
type sessionOp struct {
	run     func(me int, c *machine.Comm)
	pending atomic.Int64
	done    chan struct{}
}

// sessionRank is one rank's resident state: dense arenas replacing the
// seed's per-run map[int][]float64 row blocks, and reusable exact-size
// message buffers. Arena layout: owned row k, column l occupies
// [k·maxCols·b + l·b, …+b).
type sessionRank struct {
	lay     *rankLayout
	b       int
	maxCols int

	xA    []float64 // input row-block arena
	yA    []float64 // output row-block arena
	chunk []float64 // owned-chunk iterate (power method), k·b-indexed

	// pmLambda and pmPrev are the power method's convergence scalars;
	// they live here (not in an op closure) because the method dispatches
	// one operation per iteration and the state must survive between
	// dispatches — and be checkpointable for crash recovery.
	pmLambda float64
	pmPrev   float64

	sendBuf []float64 // one message, reused across steps (Send copies)
	recvBuf []float64

	pbuf [2]float64
}

func (rk *sessionRank) stride() int { return rk.maxCols * rk.b }

// grow (re)allocates the rank's arenas and message buffers for maxCols
// columns.
func (rk *sessionRank) grow(maxCols int) {
	rk.maxCols = maxCols
	rows := len(rk.lay.rows)
	rk.xA = make([]float64, rows*maxCols*rk.b)
	rk.yA = make([]float64, rows*maxCols*rk.b)
	if rk.chunk == nil {
		// The iterate does not depend on the column count: a regrow
		// keeps it, and with it the checkpoint records, current.
		rk.chunk = make([]float64, rows*rk.b)
	}
	if rk.lay.maxMsgW > 0 {
		rk.sendBuf = make([]float64, rk.lay.maxMsgW*maxCols)
		rk.recvBuf = make([]float64, rk.lay.maxMsgW*maxCols)
	}
}

// OpenSession validates the configuration, precomputes the steady-state
// layout, and launches the resident ranks. The tensor may be nil: the
// ranks then hold full-size, zero-valued blocks that the kernel still
// runs over (pure communication measurement). Options.MaxCols presizes
// the arenas for batched operations; ApplyBatch grows them on demand.
func OpenSession(a *tensor.Symmetric, opts Options) (*Session, error) {
	part := opts.Part
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	b := opts.B
	if b < 1 {
		return nil, fmt.Errorf("parallel: block edge %d", b)
	}
	lay, err := buildLayout(part, opts.Wiring, b)
	if err != nil {
		return nil, err
	}
	n := 0
	if opts.Sparse != nil {
		n = opts.Sparse.N
	} else if a != nil {
		n = a.N
	}
	if n > part.M*b {
		return nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d (m=%d, b=%d)", n, part.M*b, part.M, b)
	}
	if a != nil && n == 0 {
		// n = 0 stands for "no tensor" from here on.
		return nil, fmt.Errorf("parallel: empty tensor")
	}
	var op localOperator
	if srb := opts.Sparse; srb != nil {
		if a != nil {
			return nil, fmt.Errorf("parallel: sparse session takes no dense tensor")
		}
		if opts.Blocks != nil {
			return nil, fmt.Errorf("parallel: Options.Blocks and Options.Sparse are mutually exclusive")
		}
		srb, err := sparseBlocksFor(srb, part, b)
		if err != nil {
			return nil, err
		}
		op = &sparseOp{blocks: srb}
	} else {
		blocks, err := rankBlocksFor(&opts, a, part, b)
		if err != nil {
			return nil, err
		}
		op = &denseOp{blocks: blocks, scalar: opts.ScalarKernel}
	}

	s := &Session{
		opts:   opts,
		part:   part,
		b:      b,
		padded: part.M * b,
		n:      n,
		step:   tetraStep(op),
		lay:    lay,
	}
	return s.open()
}

// open sizes the arenas for Options.MaxCols columns (at least one) and
// launches the resident ranks: the tail OpenSession and OpenCPSession
// share.
func (s *Session) open() (*Session, error) {
	s.grow(max(s.opts.MaxCols, 1))
	s.att = newPhaseTable(s.part.P, len(s.step.pmLabels))
	if err := s.start(); err != nil {
		return nil, err
	}
	return s, nil
}

// grow (re)allocates arenas and message buffers for maxCols columns. Only
// called while no operation is in flight; the op-channel handoff publishes
// the new buffers to the rank goroutines.
func (s *Session) grow(maxCols int) {
	s.maxCols = maxCols
	if s.rk == nil {
		s.rk = make([]*sessionRank, s.part.P)
		for p := range s.rk {
			s.rk[p] = &sessionRank{lay: &s.lay.perRank[p], b: s.b}
		}
	}
	for _, rk := range s.rk {
		rk.grow(maxCols)
	}
	s.stageX = make([][]float64, maxCols)
	s.stageY = make([][]float64, maxCols)
	for l := 0; l < maxCols; l++ {
		s.stageX[l] = make([]float64, s.padded)
		s.stageY[l] = make([]float64, s.padded)
	}
}

func (s *Session) ensureCols(cols int) {
	if cols > s.maxCols {
		s.grow(cols)
	}
}

// Close retires the resident ranks and waits for the machine to finish.
// Safe to call more than once.
func (s *Session) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	s.cur.stop()
	s.report = s.cur.report
	s.closeErr = s.cur.runErr
	return s.closeErr
}

// Report returns the whole-session machine report (all operations summed).
// Only valid after Close.
func (s *Session) Report() *machine.Report { return s.report }

// ---------------------------------------------------------------------------
// Steady-state pack/unpack/exchange path. After warm-up, nothing here
// allocates: pack and unpack are copies over precomputed segments, Send
// draws its payload copy from the machine's pool, and RecvInto returns it.

// pack copies the segments' chunks (per row, then per column — the seed's
// payload order) from the arena into buf, returning the payload length.
func (rk *sessionRank) pack(buf, arena []float64, segs []segment, cols int) int {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		base := sg.k * stride
		n := sg.hi - sg.lo
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(buf[pos:pos+n], arena[o+sg.lo:o+sg.hi])
			pos += n
		}
	}
	return pos
}

// unpackCopy writes a received payload into the arena segments (gather).
func (rk *sessionRank) unpackCopy(payload, arena []float64, segs []segment, cols int) {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		base := sg.k * stride
		n := sg.hi - sg.lo
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(arena[o+sg.lo:o+sg.hi], payload[pos:pos+n])
			pos += n
		}
	}
}

// unpackAdd accumulates a received payload into the arena segments
// (reduce-scatter), in the seed's ascending-index order.
func (rk *sessionRank) unpackAdd(payload, arena []float64, segs []segment, cols int) {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		base := sg.k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			for t := sg.lo; t < sg.hi; t++ {
				arena[o+t] += payload[pos]
				pos++
			}
		}
	}
}

// gather runs the gather phase over the layout's steps. A gather message
// carries only the sender's owned chunks, which no receive of the phase
// writes, so the rank first sends every step's message and then receives
// in step order; a peer's later steps never wait for this rank's earlier
// receives. The clear zeroes a message's padding past its payload, which
// only the All-to-All's fixed-width messages have.
func (rk *sessionRank) gather(c *machine.Comm, cols int) {
	for si := range rk.lay.steps {
		if st := &rk.lay.steps[si]; st.sendTo >= 0 {
			n, w := rk.pack(rk.sendBuf, rk.xA, st.gSend, cols), st.gSendW*cols
			clear(rk.sendBuf[n:w])
			c.Send(st.sendTo, 100+st.sendTag, rk.sendBuf[:w])
		}
	}
	for si := range rk.lay.steps {
		if st := &rk.lay.steps[si]; st.recvFrom >= 0 {
			w := st.gRecvW * cols
			c.RecvInto(st.recvFrom, 100+st.recvTag, rk.recvBuf[:w])
			rk.unpackCopy(rk.recvBuf[:w], rk.xA, st.gRecv, cols)
		}
	}
}

// scatter runs the reduce-scatter phase over the layout's steps, sends
// first like gather: a message carries the finished partial sums of the
// receiver's chunks, and receives add only into this rank's own chunks.
// Receiving in step order fixes the addition order, and so the result
// bits, whatever order the messages arrive in.
func (rk *sessionRank) scatter(c *machine.Comm, cols int) {
	for si := range rk.lay.steps {
		if st := &rk.lay.steps[si]; st.sendTo >= 0 {
			n, w := rk.pack(rk.sendBuf, rk.yA, st.sSend, cols), st.sSendW*cols
			clear(rk.sendBuf[n:w])
			c.Send(st.sendTo, 200+st.sendTag, rk.sendBuf[:w])
		}
	}
	for si := range rk.lay.steps {
		if st := &rk.lay.steps[si]; st.recvFrom >= 0 {
			w := st.sRecvW * cols
			c.RecvInto(st.recvFrom, 200+st.recvTag, rk.recvBuf[:w])
			rk.unpackAdd(rk.recvBuf[:w], rk.yA, st.sRecv, cols)
		}
	}
}

// stage copies the host-staged input columns' owned chunks into the x
// arena. The gather phase overwrites every other chunk of every owned row
// (schedule completeness), so no clearing is needed.
func (rk *sessionRank) stage(stageX [][]float64, cols int) {
	b, stride := rk.b, rk.stride()
	for k, row := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		base := k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(rk.xA[o+lo:o+hi], stageX[l][row*b+lo:row*b+hi])
		}
	}
}

// publish writes the owned output chunks into the host's staging columns.
// Chunk ownership is a partition of every row block, so each word has
// exactly one writer.
func (rk *sessionRank) publish(stageY [][]float64, cols int) {
	b, stride := rk.b, rk.stride()
	for k, row := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		base := k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(stageY[l][row*b+lo:row*b+hi], rk.yA[o+lo:o+hi])
		}
	}
}

func (rk *sessionRank) zeroY() { clear(rk.yA) }

// xRowCol and yRowCol are the local compute's arena accessors.
func (rk *sessionRank) xRowCol(i, l int) []float64 {
	base := rk.lay.rowIdx[i]*rk.stride() + l*rk.b
	return rk.xA[base : base+rk.b]
}

func (rk *sessionRank) yRowCol(i, l int) []float64 {
	base := rk.lay.rowIdx[i]*rk.stride() + l*rk.b
	return rk.yA[base : base+rk.b]
}

// ---------------------------------------------------------------------------
// Operations.

// applyOp is the rank closure of one (possibly batched) application of
// any kind of session: stage → step → publish.
func (s *Session) applyOp(cols int, pr *phaseRecorder) func(me int, c *machine.Comm) {
	return func(me int, c *machine.Comm) {
		rk := s.rk[me]
		rk.stage(s.stageX, cols)
		s.step.run(rk, c, cols, pr)
		rk.publish(s.stageY, cols)
	}
}

// rankMeters snapshots every rank's meters on the current machine.
func (s *Session) rankMeters() []machine.Meters {
	ms := make([]machine.Meters, s.part.P)
	for r := range ms {
		ms[r] = s.cur.h.RankMeters(r)
	}
	return ms
}

// since turns a rankMeters snapshot into the meters accrued since, in
// place: an operation's Report. A replayed attempt's logical traffic was
// rolled back with its machine, and its wire traffic stays in.
func (s *Session) since(base []machine.Meters) []machine.Meters {
	for r := range base {
		base[r] = s.cur.h.RankMeters(r).Sub(base[r])
	}
	return base
}

// applyCols stages the input columns, dispatches one application, and
// leaves the padded outputs in s.stageY. Column l of the output is
// bit-identical to a single-column application of X[l].
func (s *Session) applyCols(X [][]float64) ([]machine.Meters, *phaseRecorder, error) {
	if s.closed {
		return nil, nil, fmt.Errorf("parallel: session closed")
	}
	cols := len(X)
	if cols < 1 {
		return nil, nil, fmt.Errorf("parallel: empty batch")
	}
	// Every column is validated before the dispatch (and before the
	// in-flight guard is taken): a malformed batch must surface as a clean
	// error with the session untouched and immediately reusable, never as
	// a host-op handed to the ranks with inconsistent staging.
	for l, x := range X {
		if len(x) == 0 {
			return nil, nil, fmt.Errorf("parallel: batch column %d is empty", l)
		}
		if len(x) != len(X[0]) {
			return nil, nil, fmt.Errorf("parallel: ragged batch: column %d has %d elements, column 0 has %d", l, len(x), len(X[0]))
		}
		if len(x) > s.padded {
			return nil, nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d (m=%d, b=%d)", len(x), s.padded, s.part.M, s.b)
		}
		if s.n > 0 && s.n != len(x) {
			return nil, nil, fmt.Errorf("parallel: operator dimension %d, vector length %d", s.n, len(x))
		}
	}
	if !s.inflight.CompareAndSwap(false, true) {
		return nil, nil, ErrSessionBusy
	}
	defer s.inflight.Store(false)
	s.ensureCols(cols)
	for l, x := range X {
		copy(s.stageX[l], x)
		clear(s.stageX[l][len(x):])
	}
	pr := newPhaseRecorder(s.part.P, &s.att, s.step.labels...)
	base := s.rankMeters()
	if err := s.dispatch(pr, dirtyNone, s.applyOp(cols, pr)); err != nil {
		return nil, nil, err
	}
	pr.setSteps(s.lay.steps)
	return s.since(base), pr, nil
}

// Apply computes y = A ×₂ x ×₃ x on the resident machine. The result (Y
// bits, per-phase meters, report) is exactly what a fresh Run would
// produce.
func (s *Session) Apply(x []float64) (*Result, error) {
	deltas, pr, err := s.applyCols([][]float64{x})
	if err != nil {
		return nil, err
	}
	return &Result{
		Y:       append([]float64(nil), s.stageY[0][:len(x)]...),
		Report:  machine.NewReport(deltas),
		Phases:  pr.meters.rows,
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}, nil
}

// BatchResult reports one multi-column application.
type BatchResult struct {
	// Y holds one output column per input column, each len(X[l]).
	Y [][]float64
	// Report, Phases, Ternary, Steps are as in Result, for the whole
	// batch: per-column words match cols independent applications, while
	// the message count stays that of a single one (messages ÷ cols).
	Report  *machine.Report
	Phases  []PhaseMeter
	Ternary []int64
	Steps   int
}

// PhaseShare is one column's amortized slice of a batch's PhaseMeter,
// summed over ranks: the communication bill a single tenant foots when its
// request rides a coalesced ApplyBatch. Words and ternary multiplications
// scale exactly linearly with the column count, so the per-column word and
// compute shares are exact integers; messages are paid once per schedule
// step for the whole batch, so the per-column message share is the
// fractional 1/cols split that makes batching worth coalescing for.
type PhaseShare struct {
	Label     string
	SentWords int64   // this column's sent words, summed over ranks (exact)
	RecvWords int64   // this column's received words, summed over ranks (exact)
	SentMsgs  float64 // amortized messages: batch total ÷ columns
	RecvMsgs  float64
	Ternary   int64 // this column's ternary multiplications (exact)
	Steps     int
}

// Shares splits the batch's phase meters into one per-column share. Every
// column's share is identical — the batch carries all columns through the
// same schedule steps — so the slice indexes phases, not columns.
func (br *BatchResult) Shares() []PhaseShare {
	cols := int64(len(br.Y))
	if cols == 0 {
		return nil
	}
	out := make([]PhaseShare, len(br.Phases))
	for i := range br.Phases {
		m := &br.Phases[i]
		sh := PhaseShare{Label: m.Label, Steps: m.Steps}
		var sw, rw, sm, rm, tern int64
		for r := range m.SentWords {
			sw += m.SentWords[r]
			rw += m.RecvWords[r]
			sm += m.SentMsgs[r]
			rm += m.RecvMsgs[r]
			tern += m.Ternary[r]
		}
		sh.SentWords = sw / cols
		sh.RecvWords = rw / cols
		sh.SentMsgs = float64(sm) / float64(cols)
		sh.RecvMsgs = float64(rm) / float64(cols)
		sh.Ternary = tern / cols
		out[i] = sh
	}
	return out
}

// ApplyBatch computes y_l = A ×₂ x_l ×₃ x_l for every column at once: one
// message per schedule step carrying all columns, amortizing the α (per-
// message) cost cols-fold. Output column l is bit-identical to Apply(X[l]).
func (s *Session) ApplyBatch(X [][]float64) (*BatchResult, error) {
	deltas, pr, err := s.applyCols(X)
	if err != nil {
		return nil, err
	}
	ys := make([][]float64, len(X))
	for l, x := range X {
		ys[l] = append([]float64(nil), s.stageY[l][:len(x)]...)
	}
	return &BatchResult{
		Y:       ys,
		Report:  machine.NewReport(deltas),
		Phases:  pr.meters.rows,
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}, nil
}

// seedPower starts the power method on ranks: the deterministic unit
// vector x0_i ∝ sin(1.7(i+1) + seed) over the first n of padded entries
// (the padded tail stays zero) is scattered into each rank's owned chunk
// spans, and the convergence scalars reset. Session.PowerMethod seeds
// every rank and a RankEngine only its own, from the same arithmetic, so a
// distributed run starts bit-identical to the simulated one.
func seedPower(rks []*sessionRank, n, padded int, seed int64) {
	x0 := make([]float64, padded)
	norm := 0.0
	for i := 0; i < n; i++ {
		x0[i] = math.Sin(float64(i+1)*1.7 + float64(seed))
		norm += x0[i] * x0[i]
	}
	norm = math.Sqrt(norm)
	for i := 0; i < n; i++ {
		x0[i] /= norm
	}
	for _, rk := range rks {
		b := rk.b
		for k, row := range rk.lay.rows {
			lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
			copy(rk.chunk[k*b+lo:k*b+hi], x0[row*b+lo:row*b+hi])
		}
		rk.pmLambda, rk.pmPrev = 0, math.Inf(1)
	}
}

// powerIterState carries one iteration's per-rank outcome flags from the
// dispatched op back to the host loop. Every rank writes only its own
// slot; the slots agree across ranks because the convergence test runs on
// the all-reduced scalars.
type powerIterState struct {
	stop      []bool
	converged []bool
	singular  []bool
}

// powerIterate runs one power-method iteration on this rank: stage the
// owned iterate chunks, run the session's step on that one column, then
// all-reduce λ = xᵀy and ‖y‖² from the owned chunks under tag 300, test
// convergence and normalize the owned chunks. Session.PowerMethod
// dispatches it on every kind of session and RankEngine.Iterate runs it
// on its one rank, so a rank process on real sockets executes bit for bit
// the arithmetic of the simulated run, and convergence semantics cannot
// drift between operators.
func (rk *sessionRank) powerIterate(c *machine.Comm, step rankStep, tol float64, pr *phaseRecorder) (stop, converged, singular bool) {
	b := rk.b
	rows := rk.lay.rows
	stride := rk.stride()

	// Stage the owned chunks; the step's exchange fills every other chunk.
	for k := range rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		copy(rk.xA[k*stride+lo:k*stride+hi], rk.chunk[k*b+lo:k*b+hi])
	}
	step.run(rk, c, 1, pr)

	rk.pbuf[0], rk.pbuf[1] = 0, 0
	for k := range rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		yc := rk.yA[k*stride+lo : k*stride+hi]
		xc := rk.chunk[k*b+lo : k*b+hi]
		for t := range yc {
			rk.pbuf[0] += xc[t] * yc[t]
			rk.pbuf[1] += yc[t] * yc[t]
		}
	}
	var sums []float64
	pr.comm(c, "all-reduce", func() { sums = collective.AllReduceSum(c, 300, rk.pbuf[:]) })
	lambda := sums[0]
	ynorm := math.Sqrt(sums[1])
	rk.pmLambda = lambda

	if math.Abs(lambda-rk.pmPrev) <= tol*(1+math.Abs(lambda)) {
		return true, true, false
	}
	rk.pmPrev = lambda
	if ynorm == 0 {
		// Singular: y vanished, so the iterate cannot be renormalized.
		// Keep the current iterate and stop — this is not convergence.
		return true, false, true
	}
	for k := range rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		yc := rk.yA[k*stride+lo : k*stride+hi]
		xc := rk.chunk[k*b+lo : k*b+hi]
		for t := range xc {
			xc[t] = yc[t] / ynorm
		}
	}
	return false, false, false
}

// PowerMethod runs the distributed higher-order power method (Algorithm 1)
// on the resident machine: the iterate stays distributed in the chunk
// layout across iterations, each iteration is one dispatched operation
// reusing the session's arenas and message buffers, and the host drives
// the convergence loop on flags the ranks derive from the all-reduced
// scalars. Results and meters are exactly those of RunPowerMethod.
func (s *Session) PowerMethod(po PowerOptions) (*EigenResult, error) {
	if s.closed {
		return nil, fmt.Errorf("parallel: session closed")
	}
	if s.n == 0 {
		return nil, fmt.Errorf("parallel: power method requires a tensor")
	}
	if po.MaxIter <= 0 {
		po.MaxIter = 200
	}
	if po.Tol <= 0 {
		po.Tol = 1e-12
	}
	if !s.inflight.CompareAndSwap(false, true) {
		return nil, ErrSessionBusy
	}
	defer s.inflight.Store(false)

	// Seed the distributed iterate host-side (every rank is parked
	// between operations, so its chunk arena is the host's to write).
	seedPower(s.rk, s.n, s.padded, po.Seed)

	p := s.part.P
	b := s.b

	pr := newPhaseRecorder(p, &s.att, s.step.pmLabels...)
	base := s.rankMeters()

	// Each iteration is its own dispatch, which keeps the crash-recovery
	// checkpoint granularity at one STTSV round: a crash replays the
	// iteration it hit, not the whole method.
	st := &powerIterState{stop: make([]bool, p), converged: make([]bool, p), singular: make([]bool, p)}
	iterate := func(me int, c *machine.Comm) {
		st.stop[me], st.converged[me], st.singular[me] = s.rk[me].powerIterate(c, s.step, po.Tol, pr)
	}
	iterations := 0
	for iterations < po.MaxIter {
		iterations++
		if err := s.dispatch(pr, dirtyIterate, iterate); err != nil {
			return nil, err
		}
		if st.stop[0] {
			break
		}
	}

	// Iterations counts dispatched STTSV rounds exactly: a run stopped by
	// the MaxIter cap reports MaxIter, not MaxIter+1, and Converged stays
	// false for both the cap exit and the singular exit.
	deltas := s.since(base)
	xOut := make([]float64, s.padded)
	for _, rk := range s.rk {
		for k, row := range rk.lay.rows {
			lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
			copy(xOut[row*b+lo:row*b+hi], rk.chunk[k*b+lo:k*b+hi])
		}
	}

	// The exchanges ran the full schedule once per iteration.
	pr.setSteps(s.lay.steps * iterations)
	return &EigenResult{
		Lambda:     s.rk[0].pmLambda,
		X:          xOut[:s.n],
		Iterations: iterations,
		Converged:  st.converged[0],
		Singular:   st.singular[0],
		Report:     machine.NewReport(deltas),
		Phases:     pr.meters.rows,
	}, nil
}

// MTTKRP computes the symmetric MTTKRP Y_iℓ = Σ_jk a_ijk·X_jℓ·X_kℓ as one
// batched application over the factor columns (see RunMTTKRP for the cost
// model). x may be nil for pure communication measurements at rank r.
func (s *Session) MTTKRP(x *la.Matrix, r int) (*la.Matrix, *Result, error) {
	if x != nil {
		r = x.Cols
	}
	if r < 1 {
		return nil, nil, fmt.Errorf("parallel: rank %d", r)
	}
	var n int
	switch {
	case x != nil:
		n = x.Rows
	case s.n > 0:
		n = s.n
	default:
		n = s.padded
	}
	X := make([][]float64, r)
	for l := 0; l < r; l++ {
		col := make([]float64, n)
		if x != nil {
			for i := 0; i < n; i++ {
				col[i] = x.At(i, l)
			}
		}
		X[l] = col
	}
	deltas, pr, err := s.applyCols(X)
	if err != nil {
		return nil, nil, err
	}
	y := la.NewMatrix(n, r)
	for l := 0; l < r; l++ {
		for i := 0; i < n; i++ {
			y.Set(i, l, s.stageY[l][i])
		}
	}
	res := &Result{
		Report:  machine.NewReport(deltas),
		Phases:  pr.meters.rows,
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}
	return y, res, nil
}
