package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is a running simulated machine with supervisor access: beyond
// waiting for completion (the RunWith path), a supervisor can abort the
// machine, list its crashed ranks, and seed a successor incarnation —
// started one epoch later (RunConfig.StartEpoch) — with the meters and
// event sequences it must carry on. parallel.Session's crash-recovery
// loop is the intended caller.
//
// Supervisor methods (Abort, RestoreMeters, RestoreEventSeq, Emit) are
// called from one host goroutine; RankMeters is safe whenever the rank in
// question is parked, crashed, or done.
type Handle struct {
	m       *Machine
	cfg     RunConfig
	factory TransportFactory
	body    func(c *Comm)

	// Two completion stages: bodies counts returned (or panicked) rank
	// bodies; alive counts goroutines not yet exited. Between the two, a
	// finished rank lingers in its transport (Transport.Linger) —
	// answering peers' retransmissions — until every local body has
	// returned, so a lost final ack cannot strand a still-running sender.
	// Crashed ranks do not linger: their silence is the fault being
	// modelled.
	bodies     sync.WaitGroup
	stopLinger chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
	alive      atomic.Int64 // outstanding rank goroutines
	ownedBE    Backend      // built by cfg.BackendFactory; closed with done
}

// StartWith launches body on the ranks this process owns (all P by
// default; cfg.LocalRanks restricts to a subset for distributed runs) and
// returns without waiting. RunWith is StartWith + Wait.
func StartWith(p int, cfg RunConfig, body func(c *Comm)) (*Handle, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: P = %d", p)
	}
	be := cfg.Backend
	var owned Backend // factory-built: closed when the last rank goroutine exits
	if be == nil && cfg.BackendFactory != nil {
		b, err := cfg.BackendFactory()
		if err != nil {
			return nil, fmt.Errorf("machine: backend factory: %w", err)
		}
		be, owned = b, b
	}
	if be == nil {
		be = NewSimBackend()
	}
	locals := cfg.LocalRanks
	if locals == nil {
		locals = make([]int, p)
		for i := range locals {
			locals[i] = i
		}
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("machine: no local ranks")
	}
	isLocal := make([]bool, p)
	for _, r := range locals {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("machine: local rank %d of %d", r, p)
		}
		if isLocal[r] {
			return nil, fmt.Errorf("machine: local rank %d listed twice", r)
		}
		isLocal[r] = true
	}
	m := &Machine{
		p:          p,
		raws:       make([]BackendWire, p),
		localRanks: append([]int(nil), locals...),
		ranks:      make([]rankState, p),
		observer:   cfg.Observer,
		wireEvents: cfg.WireEvents,
		obsState:   make([]rankObsState, p),
		abortCh:    make([]chan struct{}, p),
		epoch:      cfg.StartEpoch,
		recovering: cfg.OnRankDown != nil,
		start:      time.Now(),
	}
	for r := range m.ranks {
		m.ranks[r].pool.returns = make([]atomic.Pointer[returnRing], p)
	}
	for _, r := range locals {
		m.abortCh[r] = make(chan struct{})
		w, err := be.NewWire(r, p)
		if err != nil {
			if owned != nil {
				owned.Close()
			}
			return nil, err
		}
		m.raws[r] = w
	}
	factory := cfg.Transport
	if factory == nil {
		factory = NewDirectTransport
	}
	h := &Handle{
		m:          m,
		cfg:        cfg,
		factory:    factory,
		body:       body,
		stopLinger: make(chan struct{}),
		done:       make(chan struct{}),
		ownedBE:    owned,
	}
	h.alive.Add(int64(len(locals))) // before any goroutine can exit and close done
	h.bodies.Add(len(locals))
	for _, rank := range locals {
		go h.runRank(rank)
	}
	go func() {
		h.bodies.Wait()
		h.endLinger()
	}()
	return h, nil
}

func (h *Handle) endLinger() { h.stopOnce.Do(func() { close(h.stopLinger) }) }

// runRank is one rank goroutine, maintaining the two completion stages
// and the done channel, which closes when the last goroutine exits.
func (h *Handle) runRank(rank int) {
	defer func() {
		if h.alive.Add(-1) == 0 {
			close(h.done)
			if h.ownedBE != nil {
				h.ownedBE.Close()
			}
		}
	}()
	m := h.m
	st := &m.ranks[rank]
	tp := h.factory(newLink(m, rank, m.raws[rank]))
	panicked := func() (panicked bool) {
		defer h.bodies.Done()
		defer func() {
			if r := recover(); r != nil {
				st.panicVal = r
				st.set(m, uint64(BlockCrashed))
				panicked = true
			}
		}()
		h.body(m.newComm(rank, tp))
		return false
	}()
	if panicked {
		// A rank the abort unwound did not die: its machine was retired.
		if h.cfg.OnRankDown != nil && !IsAbort(st.panicVal) {
			h.cfg.OnRankDown(rank, panicToError(rank, st.panicVal))
		}
		return
	}
	st.set(m, uint64(BlockDone))
	tp.Linger(h.stopLinger)
}

// panicToError converts a rank's panic value into the structured error
// the run would surface for it.
func panicToError(rank int, v any) error {
	switch e := v.(type) {
	case CrashError:
		return e
	case UnreachableError:
		return e
	default:
		return fmt.Errorf("machine: rank %d panicked: %v", rank, v)
	}
}

// Wait blocks until every rank goroutine has exited (running the stall
// watchdog when configured) and returns the cumulative report. A watchdog
// verdict returns at once with its *DeadlockError, after aborting the
// machine so that the blocked ranks unwind and exit. Call it exactly
// once, after the resident body has been released (op channels closed) or
// to collect a watchdog/crash failure.
func (h *Handle) Wait() (*Report, error) {
	if h.cfg.Timeout > 0 {
		if err := h.m.watch(h.done, h.cfg.Timeout); err != nil {
			// Unwind the ranks the verdict found blocked, which would
			// otherwise stay parked on their mailboxes for good, and
			// release finished ranks still answering retransmits.
			h.Abort()
			h.endLinger()
			return nil, err
		}
	} else {
		<-h.done
	}
	if err := h.m.panicError(); err != nil {
		return nil, err
	}
	return h.m.reportNow(), nil
}

// Epoch returns the epoch the machine runs in (RunConfig.StartEpoch).
func (h *Handle) Epoch() int64 { return h.m.epoch }

// Abort unwinds the machine: every rank blocked inside a machine
// operation (Send ack-waits, Recv) panics with the abort sentinel the
// moment it next touches the machine, and a resident body recovers the
// sentinel and re-parks. Parked ranks are unaffected — their
// AwaitHost wait is host input, not epoch work. An aborted machine stays
// aborted: its supervisor releases the parked bodies and starts a
// successor one epoch later. Idempotent.
func (h *Handle) Abort() {
	m := h.m
	if !m.aborted.Swap(true) {
		for _, r := range m.localRanks {
			m.ranks[r].aborting.Store(true)
			close(m.abortCh[r])
		}
	}
}

// CrashedRanks lists the local ranks whose bodies have panicked. A remote
// rank's death is an OS-process event its own
// supervisor observes; this machine only ever sees the silence.
func (h *Handle) CrashedRanks() []int {
	var out []int
	for _, r := range h.m.localRanks {
		if kind, _, _ := h.m.ranks[r].blocked(); kind == BlockCrashed {
			out = append(out, r)
		}
	}
	return out
}

// RankMeters reads one rank's counter snapshot from the host. Valid
// whenever the rank cannot be mid-operation: parked, crashed, done, or
// the whole machine dead, which lets a recovery relaunch carry counters
// across machines.
func (h *Handle) RankMeters(rank int) Meters { return h.m.meters(rank) }

// RestoreMeters overwrites one rank's eight counters with mt. A recovery
// relaunch seeds the fresh machine with the checkpoint's logical counters
// (committed work only, so logical meters count it exactly once) and the
// retired machine's cumulative wire counters (where recovery overhead is
// supposed to show).
func (h *Handle) RestoreMeters(rank int, mt Meters) {
	st := &h.m.ranks[rank]
	st.sent = meter{mt.SentWords, mt.SentMsgs}
	st.recv = meter{mt.RecvWords, mt.RecvMsgs}
	st.wireSent.words.Store(mt.WireSentWords)
	st.wireSent.msgs.Store(mt.WireSentMsgs)
	st.wireRecv.words.Store(mt.WireRecvWords)
	st.wireRecv.msgs.Store(mt.WireRecvMsgs)
}

// Emit injects a trace event on a rank's stream from the host — recovery
// markers (EventRankDown, EventRecoveryBegin, EventRecoveryEnd) land in
// the same (rank, seq) order as the rank's own events. Only legal while
// the rank is parked, crashed, or done.
func (h *Handle) Emit(rank int, e Event) {
	h.m.emit(rank, e)
}

// RankEventSeq returns the sequence number the rank's next emitted event
// will carry. A recovery supervisor records it at checkpoint time so a
// later rollback can mark — via the EventRecoveryEnd Step field — exactly
// which of the rank's events belong to the aborted attempt.
func (h *Handle) RankEventSeq(rank int) int64 {
	return h.m.obsState[rank].seq.Load()
}

// RestoreEventSeq overwrites a rank's event sequence counter. A recovery
// relaunch uses it to carry per-rank trace ordering onto the fresh
// machine, whose counters would otherwise restart at zero and scramble
// the canonical (rank, seq) event order.
func (h *Handle) RestoreEventSeq(rank int, seq int64) {
	h.m.obsState[rank].seq.Store(seq)
}
