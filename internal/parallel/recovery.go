package parallel

import (
	"errors"
	"fmt"
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
	// MaxRetries bounds the replays of one operation: a failed dispatch is
	// replayed, each time on a freshly relaunched machine, at most
	// MaxRetries+1 times before its error surfaces. Default 3.
	MaxRetries int
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	return o
}

// Exhausted reports whether a dispatch whose attempts have failed
// failures times has spent its budget of MaxRetries+1 replays. The
// session supervisor and the multi-process coordinator (internal/cluster)
// both stop on it.
func (o RecoveryOptions) Exhausted(failures int) bool {
	return failures > o.withDefaults().MaxRetries+1
}

// RecoveryStats counts the supervisor's interventions over a session's
// lifetime. Logical meters are unaffected by any of them — recovery work
// shows only on the wire meters and in these counters.
type RecoveryStats struct {
	// RankDowns counts rank deaths observed (one crash hitting three
	// ranks counts three).
	RankDowns int
	// Retries counts replays of failed dispatches.
	Retries int
	// Rollbacks counts checkpoint restorations.
	Rollbacks int
	// Relaunches counts machine relaunches: one before every replay, plus
	// one when a dispatch exhausts its budget (the session then rolls back
	// to its last committed state before the error surfaces).
	Relaunches int
	// Epoch is the current machine's wire epoch; every relaunch advances
	// it by one.
	Epoch int64
	// Verifications counts fingerprint verification passes over restored
	// chunk arenas — one per rollback.
	Verifications int
	// Mismatches counts restores whose fingerprint verification failed
	// (each surfaced a RestoreMismatchError instead of replaying).
	Mismatches int
	// CheckpointWords counts the owned span words the checkpoint records
	// carried over the session lifetime. Apply-style operations contribute
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
	st.Epoch = s.cur.h.Epoch()
	return st
}

// launch is one incarnation of the resident machine. A fail-fast session
// has exactly one; a recovering session retires it on a crash and starts
// a successor one epoch later (see relaunch).
type launch struct {
	h       *machine.Handle
	ops     []chan *sessionOp
	down    chan error // crash notifications; nil on fail-fast sessions
	runDone chan struct{}
	report  *machine.Report
	runErr  error
}

// start arms the crash-recovery supervisor when Options.Recovery is set
// and launches the first machine incarnation.
func (s *Session) start() error {
	if s.opts.Recovery != nil {
		rec := s.opts.Recovery.withDefaults()
		s.rec = &rec
		if s.opts.Machine.Timeout == 0 {
			// The stall watchdog is the supervisor's backstop: it ends an
			// attempt that stalls without a crash notification, and the
			// wait for a retired incarnation that will not exit.
			s.opts.Machine.Timeout = 5 * time.Second
		}
		p := s.part.P
		s.ck = &ckStore{meters: make([]machine.Meters, p), seqs: make([]int64, p), recs: make([][]byte, p)}
		// Every rank gets a record of its zero iterate, so a rollback
		// before any power iteration verifies every rank too.
		s.encodeRecords()
	}
	return s.launchMachine(s.opts.Machine.StartEpoch)
}

// launchMachine starts a machine incarnation in the given epoch and
// installs it as s.cur. For recovering sessions the config gains the
// OnRankDown hook feeding the launch's crash channel (which also flips
// the machine into supervised mode: a crashed rank no longer poisons
// host-quiescence detection).
func (s *Session) launchMachine(epoch int64) error {
	l := &launch{ops: make([]chan *sessionOp, s.part.P), runDone: make(chan struct{})}
	for r := range l.ops {
		l.ops[r] = make(chan *sessionOp, 1)
	}
	cfg := s.opts.Machine
	cfg.StartEpoch = epoch
	if s.rec != nil {
		// One notification per rank at most, so the buffer never fills.
		l.down = make(chan error, s.part.P)
		cfg.OnRankDown = func(_ int, err error) { l.down <- err }
	}
	h, err := machine.StartWith(s.part.P, cfg, l.body)
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

// stop releases the launch's parked ranks by closing their op channels
// and waits for the machine to exit (or for its watchdog to give up).
func (l *launch) stop() {
	for _, ch := range l.ops {
		close(ch)
	}
	<-l.runDone
}

// exitErr is the error of a machine that exited under a dispatch.
func (l *launch) exitErr() error {
	if l.runErr != nil {
		return l.runErr
	}
	return fmt.Errorf("parallel: session machine exited")
}

// body is the resident loop every simulated rank of the launch runs:
// serve host-fed operations until the op channel closes.
func (l *launch) body(c *machine.Comm) {
	me := c.Rank()
	for {
		var op *sessionOp
		c.AwaitHost(func() { op = <-l.ops[me] })
		if op == nil {
			return
		}
		op.serve(c)
	}
}

// serve runs the op on one rank. An abort (the supervisor retiring this
// incarnation) unwinds it mid-communication; the rank re-parks without
// completing it and exits once its op channel closes. Any other panic (an
// injected CrashError, a genuine bug) propagates and kills the rank.
func (op *sessionOp) serve(c *machine.Comm) {
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
// supervising the run when recovery is armed. The attempt that completes
// commits its phase meters to pr; dk declares which checkpointed state
// the operation mutates, bounding what the checkpointer encodes.
func (s *Session) dispatch(pr *phaseRecorder, dk dirtyKind, run func(me int, c *machine.Comm)) error {
	if s.rec != nil {
		s.checkpoint(dk)
	}
	for replay := 0; ; replay++ {
		err := s.attempt(run)
		if err == nil {
			pr.commit()
			return nil
		}
		if s.rec == nil {
			return err // fail fast: any machine death is the error
		}
		rerr := s.relaunch(replay + 1)
		// relaunch retired the failed machine, so no survivor of the
		// attempt still counts into its rows.
		pr.discard()
		if rerr != nil {
			return rerr
		}
		if s.rec.Exhausted(replay + 1) {
			return fmt.Errorf("parallel: recovery budget of %d replays exhausted: %w", replay, err)
		}
		s.stats.Retries++
	}
}

// attempt feeds one op to every rank of the current launch and waits for
// its completion, a crash notification, or the machine's death. A rank
// that died while parked has already queued its notification, so the
// attempt fails at once instead of waiting on a rank that cannot run.
func (s *Session) attempt(run func(me int, c *machine.Comm)) error {
	l := s.cur
	op := &sessionOp{run: run, done: make(chan struct{})}
	op.pending.Store(int64(s.part.P))
	for r := range l.ops {
		select {
		case l.ops[r] <- op:
		case <-l.runDone:
			return l.exitErr()
		}
	}
	select {
	case <-op.done:
		return nil
	case <-l.runDone:
		return l.exitErr()
	case err := <-l.down:
		return err
	}
}

// relaunch is the recovery protocol. It retires the current incarnation —
// abort (survivors unwind to their park), close the op channels, wait for
// every rank to exit — and starts its successor one epoch later, rolled
// back to the checkpoint. The successor carries the checkpoint's logical
// meters (committed work only), the retired machine's cumulative wire
// meters (recovery traffic stays visible) and its per-rank event
// sequences. No wire is drained: a backend the two incarnations share
// still holds stale packets, and the new epoch's fence drops them on
// Pull. attempt labels the EventRecoveryBegin marker.
func (s *Session) relaunch(attempt int) error {
	old := s.cur
	old.h.Abort()
	old.stop()
	if err := s.launchMachine(old.h.Epoch() + 1); err != nil {
		// Without a machine the session cannot go on.
		s.closed, s.report, s.closeErr = true, old.report, err
		return err
	}
	h := s.cur.h
	for r := 0; r < s.part.P; r++ {
		mt, wm := s.ck.meters[r], old.h.RankMeters(r)
		mt.WireSentWords, mt.WireRecvWords = wm.WireSentWords, wm.WireRecvWords
		mt.WireSentMsgs, mt.WireRecvMsgs = wm.WireSentMsgs, wm.WireRecvMsgs
		h.RestoreMeters(r, mt)
		// Carry per-rank trace ordering: the fresh machine's event
		// counters would otherwise restart at zero and scramble the
		// canonical (rank, seq) order across incarnations.
		h.RestoreEventSeq(r, old.h.RankEventSeq(r))
	}
	dead := old.h.CrashedRanks()
	for _, r := range dead {
		h.Emit(r, machine.Event{Kind: machine.EventRankDown, From: r, To: r, Step: -1})
	}
	h.Emit(0, machine.Event{Kind: machine.EventRecoveryBegin, From: 0, To: 0, Step: attempt})
	s.stats.Relaunches++
	s.stats.RankDowns += len(dead)
	return s.restore()
}
