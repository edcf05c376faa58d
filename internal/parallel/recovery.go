package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
)

// ErrSessionBusy is returned by Session operations invoked while another
// operation is still in flight. A Session is a single-host-goroutine
// engine; the guard turns concurrent misuse into a structured error
// instead of a data race on the staging buffers.
var ErrSessionBusy = errors.New("parallel: session operation already in flight")

// RecoveryOptions tunes the session crash-recovery supervisor (see
// Options.Recovery). The zero value selects all defaults.
type RecoveryOptions struct {
	// MaxRetries bounds in-place replays of one operation (abort, respawn
	// dead ranks, roll back, re-dispatch). Exhausting it triggers the
	// degraded path: one full machine relaunch and a final replay.
	// Default 3.
	MaxRetries int
	// Backoff is the pause before the first replay; it doubles per retry.
	// Default 1ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Default 50ms.
	MaxBackoff time.Duration
	// QuiesceTimeout bounds how long the supervisor waits for surviving
	// ranks to unwind to their park after an abort. Default 2s.
	QuiesceTimeout time.Duration
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 50 * time.Millisecond
	}
	if o.QuiesceTimeout <= 0 {
		o.QuiesceTimeout = 2 * time.Second
	}
	return o
}

// RecoveryStats counts the supervisor's interventions over a session's
// lifetime. Logical meters are unaffected by any of them — recovery work
// shows only on the wire meters and in these counters.
type RecoveryStats struct {
	// RankDowns counts rank deaths observed (one crash hitting three
	// ranks counts three).
	RankDowns int
	// Retries counts replay attempts after a failed dispatch.
	Retries int
	// Rollbacks counts checkpoint restorations.
	Rollbacks int
	// Restarts counts individual rank respawns (in-place recovery).
	Restarts int
	// Relaunches counts degraded-mode full machine relaunches.
	Relaunches int
	// Epoch is the machine's wire epoch (0 until the first in-place
	// recovery; resets with a relaunch).
	Epoch int64
	// Verifications counts fingerprint verification passes over restored
	// chunk arenas — one per rollback and one per degraded-relaunch
	// restore.
	Verifications int
	// Mismatches counts restores whose fingerprint verification failed
	// (each surfaced a RestoreMismatchError instead of replaying).
	Mismatches int
	// Refences counts transport refences at epoch changes (one per
	// surviving rank picking up a new epoch; only disturbed peer pairs
	// had their sequence state reset).
	Refences int
	// CheckpointWords counts dirty words the incremental checkpointer
	// copied over the session lifetime. Apply-style operations contribute
	// zero; power-method iterations contribute their owned spans.
	CheckpointWords int64
	// CheckpointNanos and RestoreNanos accumulate wall time spent in the
	// checkpoint capture and the rollback-restore paths.
	CheckpointNanos int64
	RestoreNanos    int64
}

// RecoveryStats reports the supervisor counters so far. Call between
// operations (or after Close).
func (s *Session) RecoveryStats() RecoveryStats {
	st := s.stats
	st.Refences = int(s.refences.Load())
	if s.cur != nil {
		st.Epoch = s.cur.h.Epoch()
	}
	return st
}

// launch is one incarnation of the resident machine. A fail-fast session
// has exactly one; a recovering session replaces it wholesale when it
// degrades (the in-place path keeps the launch and respawns ranks inside
// it).
type launch struct {
	h       *machine.Handle
	ops     []chan *sessionOp
	runDone chan struct{}
	report  *machine.Report
	runErr  error

	// resets holds, per rank, the peers whose transport pair state was
	// disturbed by the last aborted epoch; a surviving rank reads its
	// entry when it picks up the first operation of the new epoch and
	// resets exactly those pairs (Comm.Refence). Guarded by mu because a
	// rank that raced the recovery with a stale queued op may read while
	// the supervisor installs the next epoch's lists.
	mu     sync.Mutex
	resets [][]int

	// claims counts ranks inside serve — between taking an op off the
	// queue and finishing (or skipping) it. A rank can dequeue an op just
	// before Quiesce polls it and still look parked, so the recovery
	// supervisor waits for claims to drain before it rolls rank state
	// back (see recoverInPlace).
	claims atomic.Int64
}

func (l *launch) setResets(r [][]int) {
	l.mu.Lock()
	l.resets = r
	l.mu.Unlock()
}

func (l *launch) resetsFor(me int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.resets == nil {
		return nil
	}
	return l.resets[me]
}

// awaitClaims polls until no rank holds a claim, failing after timeout.
func (l *launch) awaitClaims(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for l.claims.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// rankDown is a crash notification from the machine's OnRankDown hook.
type rankDown struct {
	rank int
	err  error
}

// launchMachine starts a fresh machine incarnation and installs it as
// s.cur. For recovering sessions the config gains the OnRankDown hook
// that feeds s.crashCh (which also flips the machine into supervised
// mode: a crashed rank no longer poisons host-quiescence detection).
func (s *Session) launchMachine() error {
	ops := make([]chan *sessionOp, s.part.P)
	for r := range ops {
		ops[r] = make(chan *sessionOp, 1)
	}
	l := &launch{ops: ops, runDone: make(chan struct{})}
	cfg := s.opts.Machine
	if s.rec != nil {
		cfg.OnRankDown = func(rank int, err error) {
			select {
			case s.crashCh <- rankDown{rank: rank, err: err}:
			default: // supervisor scans diagnostics anyway; never block a dying rank
			}
		}
	}
	h, err := machine.StartWith(s.part.P, cfg, s.rankBodyFor(l))
	if err != nil {
		return err
	}
	l.h = h
	go func() {
		l.report, l.runErr = h.Wait()
		close(l.runDone)
	}()
	s.cur = l
	return nil
}

// rankBodyFor is the resident body every simulated rank of launch l runs:
// serve host-fed operations until the op channel closes.
func (s *Session) rankBodyFor(l *launch) func(c *machine.Comm) {
	return func(c *machine.Comm) {
		me := c.Rank()
		epoch := c.Epoch()
		for {
			var op *sessionOp
			c.AwaitHost(func() { op = <-l.ops[me] })
			if op == nil {
				return
			}
			s.serve(l, op, c, &epoch)
		}
	}
}

// serve runs one dequeued op under a claim on l, skipping it when a
// recovery abandoned it while this rank was parked. The body tracks the
// machine's wire epoch; when a recovery advanced it, the rank refences its
// transport before touching the wire: only pairs the supervisor found
// disturbed by the aborted epoch have their sequence state reset, while
// clean survivor↔survivor pairs keep their counters (every exchange they
// completed was acknowledged on both ends, so the state is consistent). A
// rank respawned by RestartRank starts inside the new epoch and needs no
// refence.
//
// An epoch abort unwinds the op mid-communication and the rank re-parks
// without completing it (no pending decrement — the supervisor abandoned
// that op object and will dispatch a fresh one after rollback). Any other
// panic (an injected CrashError, a genuine bug) propagates and kills the
// rank; the claim is released either way.
func (s *Session) serve(l *launch, op *sessionOp, c *machine.Comm, epoch *int64) {
	l.claims.Add(1)
	defer l.claims.Add(-1)
	if op.abandoned.Load() {
		return
	}
	if e := c.Epoch(); e != *epoch {
		c.Refence(l.resetsFor(c.Rank()))
		s.refences.Add(1)
		*epoch = e
	}
	defer func() {
		if r := recover(); r != nil && !machine.IsAbort(r) {
			panic(r)
		}
	}()
	op.run(c.Rank(), c)
	if op.pending.Add(-1) == 0 {
		close(op.done)
	}
}

// dispatch hands one operation to every rank and waits for completion,
// supervising the run when recovery is armed. pr may be nil for
// operations without phase meters; dk declares which checkpointed state
// the operation mutates, bounding what the checkpointer copies.
func (s *Session) dispatch(pr *phaseRecorder, dk dirtyKind, run func(me int, c *machine.Comm)) error {
	if s.rec == nil {
		return s.dispatchOnce(run)
	}
	return s.dispatchRecover(pr, dk, run)
}

// dispatchOnce is the fail-fast path: one attempt, any machine death is
// the operation's error.
func (s *Session) dispatchOnce(run func(me int, c *machine.Comm)) error {
	l := s.cur
	op := &sessionOp{run: run, done: make(chan struct{})}
	op.pending.Store(int64(s.part.P))
	for r := range l.ops {
		select {
		case l.ops[r] <- op:
		case <-l.runDone:
			return s.sessionErr()
		}
	}
	select {
	case <-op.done:
		return nil
	case <-l.runDone:
		return s.sessionErr()
	}
}

func (s *Session) sessionErr() error {
	if err := s.cur.runErr; err != nil {
		return err
	}
	return fmt.Errorf("parallel: session machine exited")
}

// dispatchRecover is the supervised path: checkpoint, attempt, and on a
// rank death abort the epoch, respawn the dead ranks, roll every rank
// back to the checkpoint and replay — up to MaxRetries times with
// exponential backoff. If the retry budget runs out or the machine
// itself dies (watchdog fired, or survivors would not quiesce), it
// degrades: a fresh machine is launched carrying the committed meters,
// and the operation replays once more from the same checkpoint.
func (s *Session) dispatchRecover(pr *phaseRecorder, dk dirtyKind, run func(me int, c *machine.Comm)) error {
	ck := s.checkpoint(pr, dk)
	backoff := s.rec.Backoff
	attempt := 0
	for {
		if attempt == 0 && len(s.cur.h.CrashedRanks()) > 0 {
			// A rank died while parked (crashes can fire while a parked
			// transport services a peer's retransmission): recover before
			// feeding it an operation it can never run.
			s.stats.Retries++
			if !s.recoverInPlace(1) {
				break
			}
			if err := s.restore(ck, pr); err != nil {
				return err
			}
			attempt = 1
		}
		ok, dead := s.tryOnce(run)
		if ok {
			return nil
		}
		if dead {
			break
		}
		attempt++
		if attempt > s.rec.MaxRetries {
			break
		}
		s.stats.Retries++
		if !s.recoverInPlace(attempt) {
			break
		}
		if err := s.restore(ck, pr); err != nil {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > s.rec.MaxBackoff {
			backoff = s.rec.MaxBackoff
		}
	}
	if err := s.degrade(ck); err != nil {
		return err
	}
	if err := s.restore(ck, pr); err != nil {
		return err
	}
	return s.dispatchOnce(run)
}

// tryOnce feeds one op to every rank and waits for completion, a crash
// notification, or machine death.
func (s *Session) tryOnce(run func(me int, c *machine.Comm)) (ok, dead bool) {
	l := s.cur
	op := &sessionOp{run: run, done: make(chan struct{})}
	op.pending.Store(int64(s.part.P))
	for r := range l.ops {
		select {
		case l.ops[r] <- op:
		case <-l.runDone:
			return false, true
		}
	}
	select {
	case <-op.done:
		return true, false
	case <-l.runDone:
		return false, true
	case <-s.crashCh:
		// Abandon the op before recoverInPlace aborts the epoch: a rank
		// that dequeues it from here on skips it instead of running it
		// against state the rollback is about to rewrite.
		op.abandoned.Store(true)
		return false, false
	}
}

// recoverInPlace executes one abort-respawn-refence cycle on the current
// launch: abort the epoch (every rank blocked in a machine operation
// unwinds to its park), wait for quiescence, respawn each crashed rank
// on a fresh mailbox, and roll the machine into a new epoch that fences
// all stale wire traffic. Returns false when the machine cannot be
// saved in place (survivors stuck past the quiesce window, or a respawn
// failed) — the caller degrades to a relaunch.
func (s *Session) recoverInPlace(attempt int) bool {
	l := s.cur
	l.h.Abort()
	// Ranks still running an op unwind at their next machine operation;
	// wait for them to release their claims, then for every rank to park
	// (parking records the abort context computeResets reads).
	if !l.awaitClaims(s.rec.QuiesceTimeout) {
		return false
	}
	if err := l.h.Quiesce(s.rec.QuiesceTimeout); err != nil {
		return false
	}
	s.drainCrashes()
	dead := l.h.CrashedRanks()
	for _, r := range dead {
		l.h.Emit(r, machine.Event{Kind: machine.EventRankDown, From: r, To: r, Step: -1})
	}
	// The supervisor abandoned the aborted op object; any rank (dead or
	// parked) that never consumed its copy must not replay it after the
	// rollback.
	for r := range l.ops {
		select {
		case <-l.ops[r]:
		default:
		}
	}
	l.h.Emit(0, machine.Event{Kind: machine.EventRecoveryBegin, From: 0, To: 0, Step: attempt})
	// Publish the disturbed-pair lists before the epoch advances: a rank
	// observing the new epoch is then guaranteed to see its reset list.
	l.setResets(s.computeResets(dead))
	l.h.BeginEpoch()
	for _, r := range dead {
		if err := l.h.RestartRank(r); err != nil {
			return false
		}
	}
	s.stats.RankDowns += len(dead)
	s.stats.Restarts += len(dead)
	return true
}

// computeResets derives the transport pairs disturbed by the aborted
// epoch — the only pairs whose sequence state a surviving rank must
// rebase when it refences into the new epoch. Three evidence sources,
// each symmetrized (a reset must land on both ends of a pair or the
// survivors' counters diverge):
//
//  1. every (dead rank, static peer) pair: the respawned rank's fresh
//     transport starts all its counters in the new epoch's namespace, so
//     every survivor it can ever exchange with must rebase its side;
//  2. every pair a survivor was unwound out of mid-Send or mid-Recv (the
//     abort context its park recorded): the message in flight was rolled
//     back, so both ends' counters refer to an abandoned conversation;
//  3. every pair with buffered transport state on the receiving side —
//     payloads released but never consumed, or packets parked out of
//     order: consumed-and-acked is the only boundary at which a pair's
//     counters are provably consistent.
//
// Pairs outside all three sets completed their exchanges with both ends
// acknowledged, so their counters continue seamlessly across the epoch —
// that is the partial-rebind win.
func (s *Session) computeResets(dead []int) [][]int {
	p := s.part.P
	l := s.cur
	mark := make([][]bool, p)
	for i := range mark {
		mark[i] = make([]bool, p)
	}
	pair := func(i, j int) {
		if i == j || i < 0 || j < 0 || i >= p || j >= p {
			return
		}
		mark[i][j], mark[j][i] = true, true
	}
	for _, d := range dead {
		for _, q := range s.staticPeers[d] {
			pair(d, q)
		}
	}
	for r := 0; r < p; r++ {
		if k, peer := l.h.TakeAbortContext(r); k == machine.BlockSend || k == machine.BlockRecv {
			pair(r, peer)
		}
		for _, pe := range l.h.RankPending(r) {
			pair(r, pe.From)
		}
	}
	resets := make([][]int, p)
	for i := range resets {
		for j := 0; j < p; j++ {
			if mark[i][j] {
				resets[i] = append(resets[i], j)
			}
		}
	}
	return resets
}

// buildStaticPeers precomputes, per rank, every peer the session's wiring
// can ever exchange with — the schedule's matching structure plus the
// collectives the session's operations run. When a rank dies, exactly
// these pairs must rebase on its respawn; ranks outside a dead rank's
// static set never shared a conversation with it. Under the All-to-All
// wiring the fixed exchange ring touches every pair, so the graph is
// complete; under the point-to-point wiring it is the schedule's step
// pairs plus the scalar all-reduce tree (a gather into rank 0 and a
// binomial broadcast) the power method runs each iteration.
func (s *Session) buildStaticPeers() [][]int {
	p := s.part.P
	adj := make([][]bool, p)
	for i := range adj {
		adj[i] = make([]bool, p)
	}
	pair := func(i, j int) {
		if j >= 0 && j < p && i != j {
			adj[i][j], adj[j][i] = true, true
		}
	}
	if s.opts.Wiring == WiringAllToAll {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					adj[i][j] = true
				}
			}
		}
	} else {
		for r := 0; r < p; r++ {
			for _, st := range s.lay.perRank[r].steps {
				pair(r, st.sendTo)
				pair(r, st.recvFrom)
			}
		}
		for r := 1; r < p; r++ {
			pair(r, 0) // all-reduce gather into the group root
		}
		for bit := 1; bit < p; bit <<= 1 {
			for a := 0; a < bit && a+bit < p; a++ {
				pair(a, a+bit) // binomial broadcast edges
			}
		}
	}
	out := make([][]int, p)
	for i := range out {
		for j := 0; j < p; j++ {
			if adj[i][j] {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// degrade retires the current machine incarnation entirely and launches
// a fresh one that carries the meters forward: logical counters resume
// from the checkpoint (committed work only), wire counters resume from
// the old machine's cumulative totals (recovery traffic stays visible).
func (s *Session) degrade(ck *ckSlot) error {
	old := s.cur
	dead := old.h.CrashedRanks()
	// Unstick anything still blocked in a machine operation, then release
	// the parked survivors; the old machine's goroutines all exit.
	old.h.Abort()
	for r := range old.ops {
		close(old.ops[r])
	}
	<-old.runDone
	s.drainCrashes()

	carried := make([]machine.Meters, s.part.P)
	seqs := make([]int64, s.part.P)
	for r := range carried {
		mt := ck.meters[r]
		wm := old.h.RankMeters(r)
		mt.WireSentWords, mt.WireRecvWords = wm.WireSentWords, wm.WireRecvWords
		mt.WireSentMsgs, mt.WireRecvMsgs = wm.WireSentMsgs, wm.WireRecvMsgs
		carried[r] = mt
		seqs[r] = old.h.RankEventSeq(r)
	}
	if err := s.launchMachine(); err != nil {
		return err
	}
	for r, mt := range carried {
		s.cur.h.RestoreMeters(r, mt, true)
		// Carry per-rank trace ordering onto the fresh machine: its event
		// counters would otherwise restart at zero and scramble the
		// canonical (rank, seq) order across incarnations.
		s.cur.h.RestoreEventSeq(r, seqs[r])
	}
	s.stats.Relaunches++
	s.stats.RankDowns += len(dead)
	for _, r := range dead {
		s.cur.h.Emit(r, machine.Event{Kind: machine.EventRankDown, From: r, To: r, Step: -1})
	}
	s.cur.h.Emit(0, machine.Event{Kind: machine.EventRecoveryBegin, From: 0, To: 0, Step: s.rec.MaxRetries + 1})
	return nil
}

func (s *Session) drainCrashes() {
	for {
		select {
		case <-s.crashCh:
		default:
			return
		}
	}
}

// The checkpoint store itself — incremental capture, shadow mirrors, page
// fingerprints, and verified restore — lives in checkpoint.go.
