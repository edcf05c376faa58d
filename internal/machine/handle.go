package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is a running simulated machine with supervisor access: beyond
// waiting for completion (the RunWith path), a supervisor can abort the
// current epoch, wait for the survivors to park, restart crashed ranks,
// and roll the machine into a new epoch that fences all stale wire
// traffic. parallel.Session's crash-recovery loop is the
// intended caller; everything here assumes a resident body that parks in
// AwaitHost between host-fed operations.
//
// Supervisor methods (Abort, Quiesce, BeginEpoch, RestartRank,
// RestoreMeters, Emit) are called from one host goroutine; RankMeters is
// safe whenever the rank in question is parked, crashed, or done.
type Handle struct {
	m       *Machine
	cfg     RunConfig
	factory TransportFactory
	body    func(c *Comm)

	// Two completion stages: bodies counts returned (or panicked) rank
	// bodies; wg counts fully exited goroutines. Between the two, a
	// finished rank lingers in its transport (Transport.Linger) —
	// answering peers' retransmissions — until every local body has
	// returned, so a lost final ack cannot strand a still-running sender.
	// Crashed ranks do not linger: their silence is the fault being
	// modelled.
	bodies     sync.WaitGroup
	wg         sync.WaitGroup
	stopLinger chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
	doneOnce   sync.Once
	alive      atomic.Int64 // outstanding rank goroutines
	ownedBE    Backend      // built by cfg.BackendFactory; closed with done
}

// StartWith launches body on the ranks this process owns (all P by
// default; cfg.LocalRanks restricts to a subset for distributed runs) and
// returns without waiting. RunWith is StartWith + Wait.
//
// In a distributed run the in-process counting barrier cannot see remote
// ranks, so every local rank's backend wire must provide a control-plane
// barrier — Barrier(epoch, abort) (gen, ok), blocking until all P ranks of
// the epoch have arrived and returning the global generation, or ok ==
// false once abort closes or a remote abort decision lands. StartWith
// looks it up once per rank and fails when a wire has none.
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
		be = NewSimBackend(cfg.InboxCap)
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
		isLocal:    isLocal,
		sent:       make([]counter, p),
		recv:       make([]counter, p),
		wireSent:   make([]counter, p),
		wireRecv:   make([]counter, p),
		barrier:    newBarrier(len(locals)),
		ctlBarrier: make([]func(int64, <-chan struct{}) (int, bool), p),
		observer:   cfg.Observer,
		wireEvents: cfg.WireEvents,
		obsState:   make([]rankObsState, p),
		diags:      make([]rankDiag, p),
		abortCh:    make(chan struct{}),
		recovering: cfg.OnRankDown != nil,
		start:      time.Now(),
	}
	m.epoch.Store(cfg.StartEpoch)
	for _, r := range locals {
		w, err := be.NewWire(r, p)
		if err == nil && len(locals) < p {
			if bw, ok := w.(interface {
				Barrier(epoch int64, abort <-chan struct{}) (gen int, ok bool)
			}); ok {
				m.ctlBarrier[r] = bw.Barrier
			} else {
				err = fmt.Errorf("machine: distributed run over %T, which provides no control-plane Barrier", w)
			}
		}
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
	for _, rank := range locals {
		h.spawnRank(rank)
	}
	go func() {
		h.bodies.Wait()
		h.endLinger()
	}()
	return h, nil
}

func (h *Handle) endLinger() { h.stopOnce.Do(func() { close(h.stopLinger) }) }

// spawnRank launches one rank's goroutine, maintaining the two
// completion stages and the done channel. The done channel closes when
// the outstanding goroutine count reaches zero; a RestartRank racing
// that close is impossible because restarts are only legal while the
// supervisor holds survivors parked (their goroutines are alive).
func (h *Handle) spawnRank(rank int) {
	h.bodies.Add(1)
	h.wg.Add(1)
	go h.runRank(rank)
}

func (h *Handle) runRank(rank int) {
	defer func() {
		h.wg.Done()
		if h.alive.Add(-1) == 0 {
			h.doneOnce.Do(func() {
				close(h.done)
				if h.ownedBE != nil {
					h.ownedBE.Close()
				}
			})
		}
	}()
	m := h.m
	d := &m.diags[rank]
	tp := h.factory(newLink(m, rank, m.raws[rank]))
	var panicVal any
	panicked := func() (panicked bool) {
		defer h.bodies.Done()
		defer func() {
			if r := recover(); r != nil {
				d.setPanic(r)
				panicVal = r
				panicked = true
			}
		}()
		h.body(m.newComm(rank, tp))
		return false
	}()
	if panicked {
		if h.cfg.OnRankDown != nil {
			h.cfg.OnRankDown(rank, panicToError(rank, panicVal))
		}
		return
	}
	d.setDone()
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
// watchdog when configured) and returns the cumulative report. Call it
// exactly once, after the resident body has been released (op channels
// closed) or to collect a watchdog/crash failure.
func (h *Handle) Wait() (*Report, error) {
	if h.cfg.Timeout > 0 {
		if err := h.m.watch(h.done, h.cfg.Timeout); err != nil {
			h.endLinger() // release finished ranks still answering retransmits
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

// Epoch returns the machine's current recovery epoch.
func (h *Handle) Epoch() int64 { return h.m.epoch.Load() }

// Abort starts unwinding the current epoch: every rank blocked inside a
// machine operation (Send ack-waits, Recv, Barrier) panics with the
// abort sentinel the moment it next touches the machine, and a resident
// body recovers the sentinel and re-parks. Parked ranks are unaffected —
// their AwaitHost wait is host input, not epoch work. Idempotent.
func (h *Handle) Abort() {
	m := h.m
	m.abortMu.Lock()
	if !m.aborting.Swap(true) {
		close(m.abortCh)
	}
	m.abortMu.Unlock()
	m.barrier.abort()
}

// Quiesce polls until every rank is parked (BlockHost), crashed, or done
// — the precondition for BeginEpoch/RestartRank — failing after timeout.
// Call it after Abort; survivors unwind to their park within a few
// scheduler quanta unless one is stuck in a long local compute.
func (h *Handle) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if h.quiescent() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("machine: ranks still unwinding after %v abort window", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (h *Handle) quiescent() bool {
	for _, r := range h.m.localRanks {
		kind, _, _, _ := h.m.diags[r].snapshot()
		switch kind {
		case BlockHost, BlockCrashed, BlockDone:
		default:
			return false
		}
	}
	return true
}

// CrashedRanks lists the local ranks whose bodies have panicked and not
// been restarted. A remote rank's death is an OS-process event its own
// supervisor observes; this machine only ever sees the silence.
func (h *Handle) CrashedRanks() []int {
	var out []int
	for _, r := range h.m.localRanks {
		kind, _, _, _ := h.m.diags[r].snapshot()
		if kind == BlockCrashed {
			out = append(out, r)
		}
	}
	return out
}

// BeginEpoch rolls the machine into a new epoch after an Abort has
// quiesced it: the abort flag clears, every mailbox is drained (stale
// packets from the aborted epoch would otherwise confuse fresh protocol
// state — and any that survive the drain in flight are fenced by their
// epoch stamp), the barrier re-arms, and every rank's trace phase scope
// resets (an aborted operation can die mid-phase, and the replay begins
// the phase again). Returns the new epoch. Drained payloads are never
// recycled into the payload pool: a pre-crash transport may still hold
// retransmission references to them.
func (h *Handle) BeginEpoch() int64 {
	m := h.m
	m.abortMu.Lock()
	m.aborting.Store(false)
	m.abortCh = make(chan struct{})
	epoch := m.epoch.Add(1)
	m.abortMu.Unlock()
	m.barrier.reset()
	for _, r := range m.localRanks {
		m.raws[r].Drain()
		st := &m.obsState[r]
		st.phase = ""
		st.op = ""
		st.opDepth = 0
	}
	return epoch
}

// RestartRank respawns a crashed rank's body with fresh transport state
// over its existing wire, clearing its recorded panic so the eventual
// Wait does not resurrect an already-recovered crash. Call between
// BeginEpoch and the replay dispatch: BeginEpoch has drained the rank's
// mailbox, and the epoch fence drops any older packet still in flight.
// The respawned body starts in the new epoch, parks, and needs no
// Refence. A distributed run's ranks are OS processes, restarted by the
// cluster supervisor, not here.
func (h *Handle) RestartRank(rank int) error {
	if rank < 0 || rank >= h.m.p {
		return fmt.Errorf("machine: restart of rank %d of %d", rank, h.m.p)
	}
	if !h.m.isLocal[rank] {
		return fmt.Errorf("machine: restart of remote rank %d", rank)
	}
	kind, _, _, _ := h.m.diags[rank].snapshot()
	if kind != BlockCrashed {
		return fmt.Errorf("machine: restart of rank %d in state %v (want crashed)", rank, kind)
	}
	h.m.diags[rank].reset()
	// A crashed rank's goroutine has fully exited, so alive is strictly
	// below P here, and the parked survivors keep it above zero — the
	// increment cannot race the done close.
	h.alive.Add(1)
	h.spawnRank(rank)
	return nil
}

// RankMeters reads one rank's counter snapshot from the host. Valid
// whenever the rank cannot be mid-operation: parked, crashed, done — or
// the whole machine dead (unlike Comm.Meters, no live rank goroutine is
// needed, which is what the degraded-relaunch path relies on to carry
// counters across machines).
func (h *Handle) RankMeters(rank int) Meters {
	m := h.m
	return Meters{
		SentWords: m.sent[rank].words.Load(), RecvWords: m.recv[rank].words.Load(),
		SentMsgs: m.sent[rank].msgs.Load(), RecvMsgs: m.recv[rank].msgs.Load(),
		WireSentWords: m.wireSent[rank].words.Load(), WireRecvWords: m.wireRecv[rank].words.Load(),
		WireSentMsgs: m.wireSent[rank].msgs.Load(), WireRecvMsgs: m.wireRecv[rank].msgs.Load(),
	}
}

// RestoreMeters overwrites one rank's logical counters with mt — the
// rollback that makes logical meters count committed work exactly once.
// With wire set, the wire counters are overwritten too (the degraded
// relaunch carries cumulative wire totals onto the fresh machine);
// otherwise they keep accumulating, which is where recovery overhead is
// supposed to show.
func (h *Handle) RestoreMeters(rank int, mt Meters, wire bool) {
	m := h.m
	m.sent[rank].set(mt.SentWords, mt.SentMsgs)
	m.recv[rank].set(mt.RecvWords, mt.RecvMsgs)
	if wire {
		m.wireSent[rank].set(mt.WireSentWords, mt.WireSentMsgs)
		m.wireRecv[rank].set(mt.WireRecvWords, mt.WireRecvMsgs)
	}
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

// RestoreEventSeq overwrites a rank's event sequence counter. The
// degraded-relaunch path uses it to carry per-rank trace ordering onto a
// fresh machine, whose counters would otherwise restart at zero and
// scramble the canonical (rank, seq) event order.
func (h *Handle) RestoreEventSeq(rank int, seq int64) {
	h.m.obsState[rank].seq.Store(seq)
}

// TakeAbortContext returns and clears the operation the rank was unwound
// out of by the last abort: BlockSend or BlockRecv plus the peer when the
// rank re-parked mid-exchange, BlockNone when its previous operation
// completed cleanly. Valid after Quiesce (parking records the context
// before the rank becomes host-blocked).
func (h *Handle) TakeAbortContext(rank int) (BlockKind, int) {
	return h.m.diags[rank].takeAbortContext()
}

// RankPending snapshots the messages a rank's transport has buffered —
// pulled off the wire (or parked out of order) but never consumed by a
// logical Recv. After an abort these are conversations torn mid-flight;
// the recovery supervisor reads them to find disturbed transport pairs.
func (h *Handle) RankPending(rank int) []PendingEntry {
	_, _, _, pending := h.m.diags[rank].snapshot()
	return pending
}
