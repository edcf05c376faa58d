package machine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// EventKind classifies the structured trace events a run can emit. The
// vocabulary covers everything the paper's cost model charges for: messages
// (latency and bandwidth) and local ternary multiplications — plus the
// phase markers that scope each of them to a
// stage of Algorithm 5 (gather / local / reduce-scatter).
type EventKind int

const (
	// EventSend records a logical message being posted (one per
	// Comm.Send), or — with Event.Wire set — a raw datagram being pushed
	// onto the wire (retransmissions, duplicates and acks included).
	EventSend EventKind = iota
	// EventRecv records a logical message being delivered to its Recv
	// call, or — with Event.Wire set — a raw datagram being pulled.
	EventRecv
	// EventBarrier is emitted by nothing; perfbench's layer split still switches on it.
	EventBarrier
	// EventPhaseBegin and EventPhaseEnd bracket an algorithm phase on one
	// rank; every event in between carries the phase's label.
	EventPhaseBegin
	EventPhaseEnd
	// EventLocalCompute records a completed local-compute stage with its
	// ternary-multiplication count in Event.Ternary.
	EventLocalCompute
	// EventRankDown records a rank's body dying (an injected crash or a
	// genuine panic) as observed by a recovery supervisor; From and To
	// are the dead rank. Emitted from the host, not the dead rank's
	// goroutine.
	EventRankDown
	// EventRecoveryBegin and EventRecoveryEnd bracket one recovery span:
	// the supervisor's abort-relaunch-rollback sequence between the crash
	// and the replay dispatch. Step carries the retry attempt index
	// (1-based) on EventRecoveryBegin. Replay-transparent: the α-β-γ
	// engine ignores kinds it does not model.
	EventRecoveryBegin
	// EventRecoveryEnd marks the completion of a rollback on one rank.
	// Step carries the rank's event sequence number captured when the
	// restored checkpoint was taken (-1 when unknown): every logical event
	// the rank emitted at or after that sequence belongs to an aborted
	// attempt and is superseded by the replay that follows the marker.
	EventRecoveryEnd
	// EventRestoreVerify records a fingerprint verification pass over the
	// restored arenas after a rollback; Words carries the number of pages
	// checked.
	EventRestoreVerify
	// EventRestoreMismatch records a page whose post-restore fingerprint
	// disagreed with the checkpoint-time fingerprint; From and To are the
	// affected rank and Step the failing page index. The supervisor turns
	// it into a RestoreMismatchError instead of replaying corrupt state.
	EventRestoreMismatch
	// EventDrop records a raw datagram the wire lost — a socket send to a
	// dead peer, a write error, an injected chaos fault, or a frame the
	// socket refused on arrival as misaddressed. Always a wire event (Wire
	// == true, emitted only when RunConfig.WireEvents is set) with no
	// phase or op scope; it never enters the logical meters, which count
	// only what the Send/Recv layer commits.
	EventDrop
)

// kindNames spells each event kind as String and the JSONL trace format
// write it. EventBarrier has no name: nothing emits it.
var kindNames = [...]string{
	EventSend:            "send",
	EventRecv:            "recv",
	EventPhaseBegin:      "phase-begin",
	EventPhaseEnd:        "phase-end",
	EventLocalCompute:    "local-compute",
	EventRankDown:        "rank-down",
	EventRecoveryBegin:   "recovery-begin",
	EventRecoveryEnd:     "recovery-end",
	EventRestoreVerify:   "restore-verify",
	EventRestoreMismatch: "restore-mismatch",
	EventDrop:            "drop",
}

func (k EventKind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind returns the kind whose String is name; ok is false for
// a name no kind has.
func ParseEventKind(name string) (k EventKind, ok bool) {
	for i, n := range kindNames {
		if n != "" && n == name {
			return EventKind(i), true
		}
	}
	return 0, false
}

// Event is one structured trace record. Events are emitted synchronously
// from the goroutine of the rank they happen on (a wire may report an
// EventDrop from its own); an observer collecting them must be safe for
// concurrent use (see obs.Recorder for a ready-made collector).
//
// Logical events (Wire == false) account exactly for the quantities the
// paper's theory bounds: summed per rank they equal the Report's logical
// meters, fault recovery included, because they are emitted at the
// Send/Recv layer the reliable transport restores. Wire events (Wire ==
// true, emitted only when RunConfig.WireEvents is set) additionally record
// every raw datagram — retransmissions, injected duplicates, and zero-word
// acks — and sum to the wire meters instead.
type Event struct {
	Kind EventKind
	// Rank is the processor the event occurred on.
	Rank int
	// From and To are the message endpoints for send/recv events; both
	// equal Rank for non-message events.
	From, To int
	// Tag is the message tag (send/recv events; 0 otherwise).
	Tag int
	// Words is the payload size of a send/recv event.
	Words int
	// Phase is the enclosing phase label ("" outside any phase).
	Phase string
	// Op is the enclosing collective operation ("" outside package
	// collective).
	Op string
	// Seq orders this rank's events: a per-rank counter starting at 0.
	Seq int64
	// Step is the recovery markers' index (EventRecoveryBegin,
	// EventRecoveryEnd, EventRestoreMismatch), -1 otherwise.
	Step int
	// Ternary is the ternary-multiplication count of an
	// EventLocalCompute.
	Ternary int64
	// Wire marks raw wire datagrams as opposed to logical messages.
	Wire bool
	// Epoch is the machine recovery epoch the event was emitted in (0
	// until the first crash recovery), so post-rollback replays are
	// distinguishable from the aborted attempts they supersede.
	Epoch int64
	// Wall is the wall-clock time of emission in nanoseconds since the
	// machine incarnation started. On the simulated backend it measures
	// host compute; on a socket backend it is real elapsed time, so a
	// trace's wall span can be compared against the α-β-γ replay
	// prediction (obs.Trace.WallSpan).
	Wall int64
}

// rankObsState is a rank's event-emission bookkeeping. The scope fields
// are touched only from the owning rank's goroutine (transports, including
// fault injectors and the reliable protocol's Wait/Linger loops, all run
// on that goroutine); seq is atomic because a recovery supervisor reads it
// from the host to segment committed from rolled-back events, and restores
// it across a relaunch so per-rank ordering stays monotonic.
type rankObsState struct {
	phase   string
	op      string
	opDepth int
	seq     atomic.Int64
}

// emit stamps an event with the rank's phase scope and sequence number
// and hands it to the observer. No-op without an observer.
func (m *Machine) emit(rank int, e Event) {
	if m.observer != nil {
		m.record(rank, e)
	}
}

// emitMsg is emit for a send or receive event, which every message
// makes. It inlines, and it builds the event only once it has found an
// observer installed; emit's caller builds the whole event first.
func (m *Machine) emitMsg(rank int, kind EventKind, from, to, tag, words int, wire bool) {
	if m.observer != nil {
		m.record(rank, Event{Kind: kind, From: from, To: to, Tag: tag, Words: words, Step: -1, Wire: wire})
	}
}

// record is emit's body for an installed observer.
func (m *Machine) record(rank int, e Event) {
	st := &m.obsState[rank]
	if e.Phase == "" {
		e.Phase = st.phase
	}
	e.Op = st.op
	m.stamp(rank, e)
}

// stamp sets the event's rank, epoch, sequence number and wall time and
// hands it to the installed observer. Unlike record it reads none of the
// rank's scope, so it is safe off the rank's goroutine.
func (m *Machine) stamp(rank int, e Event) {
	e.Rank = rank
	e.Epoch = m.epoch
	e.Seq = m.obsState[rank].seq.Add(1) - 1
	e.Wall = int64(time.Since(m.start))
	m.observer(e)
}

// BeginPhase opens a named phase on this rank: an EventPhaseBegin is
// emitted and every subsequent event carries the label until EndPhase.
// Phases do not nest — a second BeginPhase before EndPhase panics, because
// phase-scoped meters would silently mis-attribute.
func (c *Comm) BeginPhase(label string) {
	st := &c.m.obsState[c.rank]
	if st.phase != "" {
		panic(fmt.Sprintf("machine: rank %d: BeginPhase(%q) inside phase %q", c.rank, label, st.phase))
	}
	st.phase = label
	c.m.emit(c.rank, Event{Kind: EventPhaseBegin, From: c.rank, To: c.rank, Step: -1})
}

// EndPhase closes the current phase, emitting an EventPhaseEnd that still
// carries the label.
func (c *Comm) EndPhase() {
	st := &c.m.obsState[c.rank]
	if st.phase == "" {
		panic(fmt.Sprintf("machine: rank %d: EndPhase outside any phase", c.rank))
	}
	c.m.emit(c.rank, Event{Kind: EventPhaseEnd, From: c.rank, To: c.rank, Step: -1})
	st.phase = ""
}

// Phase returns this rank's current phase label ("" outside any phase).
func (c *Comm) Phase() string { return c.m.obsState[c.rank].phase }

// BeginOp labels subsequent events with a collective-operation name; used
// by package collective so traces can attribute words to the collective
// that moved them. Ops nest (an all-reduce is a reduce plus a broadcast)
// and the outermost label wins.
func (c *Comm) BeginOp(name string) {
	st := &c.m.obsState[c.rank]
	st.opDepth++
	if st.opDepth == 1 {
		st.op = name
	}
}

// EndOp closes the innermost collective-operation scope.
func (c *Comm) EndOp() {
	st := &c.m.obsState[c.rank]
	if st.opDepth == 0 {
		panic(fmt.Sprintf("machine: rank %d: EndOp outside any op", c.rank))
	}
	st.opDepth--
	if st.opDepth == 0 {
		st.op = ""
	}
}

// LocalCompute records a completed local-compute stage of `ternary`
// ternary multiplications as an EventLocalCompute — the quantity the
// replay engine charges γ time units per.
func (c *Comm) LocalCompute(ternary int64) {
	c.m.emit(c.rank, Event{Kind: EventLocalCompute, From: c.rank, To: c.rank, Step: -1, Ternary: ternary})
}
