// Package machine simulates the α-β-γ (MPI-style) parallel machine of
// §3.1: P processors, each with private local memory, communicating over a
// fully connected network by sending and receiving messages.
//
// Because the paper's results are statements about counted communication —
// words sent and received per processor (bandwidth cost) and message counts
// (latency cost) — a simulator that executes the real data movement and
// meters it exactly reproduces the quantities the theory bounds. Each
// processor runs as a goroutine; messages are copied (distributed memory —
// no sharing), delivered through per-rank mailboxes, and metered at both
// endpoints. A message should cost what the model charges, so the path
// shares nothing machine-wide: each rank's meters, progress counter, block
// state, held messages and payload pool are its own, written without a
// lock, and the stall watchdog reads them only once progress has stopped.
//
// The package is layered: logical point-to-point Send/Recv with tags (plus
// per-rank counters) ride on a pluggable Transport over a raw
// packet Wire, which the machine layers over one BackendWire per rank from
// a Backend. Those four interfaces are the whole seam, and every method on
// them is required: a Transport sends, delivers each rank's logical
// messages in per-sender order, waits while its rank is parked, and
// lingers after its body returns; a BackendWire moves, prices and reports
// lost packets. Matching a message to a Recv by (source, tag) happens
// once, in Comm, which holds any message that arrives before its Recv.
// The default direct transport maps one logical message to one packet on
// the perfect simulated network; package fault perturbs the wire
// (drop/duplicate/reorder/corrupt/stall/crash) and provides a reliable
// transport that restores logical semantics on top. Logical and wire
// traffic are metered separately, so recovery overhead never contaminates
// the communication counts the theory is compared against. Collectives
// are layered on top in package collective.
package machine

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Machine is the shared state of one simulated run.
type Machine struct {
	p          int
	raws       []BackendWire // per-rank raw endpoints; nil for remote ranks
	localRanks []int         // ranks running in this process, ascending
	ranks      []rankState
	observer   func(Event)
	wireEvents bool
	obsState   []rankObsState
	start      time.Time  // incarnation start; Event.Wall is measured from it
	snapMu     sync.Mutex // held while the watchdog reads frozen ranks (see deadlockError)

	// Crash-recovery state (see handle.go). epoch is stamped on every
	// packet and fences off any other incarnation's traffic on reused
	// wires; Abort sets each rank's aborting flag and closes its abortCh,
	// which every blocked mailbox Pull selects on, to unwind blocked ranks
	// out of the current operation; recovering relaxes the watchdog's
	// treatment of crashed ranks, because a supervisor will relaunch the
	// machine.
	epoch      int64
	aborted    atomic.Bool
	abortCh    []chan struct{}
	recovering bool
}

// rankState is one rank's state on the message path. Only the rank's
// goroutine writes it — the host writes meters only into a parked or dead
// rank, and the abort flag once — so nothing here takes a lock, and the
// padding keeps each rank on cache lines of its own. The logical meters
// move only inside Send and Recv, which the host never overlaps with its
// reads, so they are plain words; a reliable transport services the wire
// while its rank is parked, so the wire meters are atomic.
type rankState struct {
	sent, recv         meter
	wireSent, wireRecv wireMeter
	progress           atomic.Int64  // logical operations completed
	block              atomic.Uint64 // what the rank waits on (see blockWord)
	aborting           atomic.Bool
	// op is the block word of the machine call the rank is in, until the
	// call waits and publishes it in block (see rankState.publish); it is
	// 0 after that and outside a call.
	op uint64
	// held holds the messages released to the rank that no Recv has
	// taken yet, in one chain per sender (see heldMsg); nheld counts them.
	held     []heldMsg
	lanes    []heldLane
	free     int32
	nheld    int
	pool     payloadPool
	panicVal any // set as the rank's goroutine dies; read after it exited
	_        [64]byte
}

// meter is one direction of a rank's logical traffic.
type meter struct{ words, msgs int64 }

func (c *meter) add(words int64) {
	c.words += words
	c.msgs++
}

// wireMeter is one direction of a rank's wire traffic.
type wireMeter struct{ words, msgs atomic.Int64 }

func (c *wireMeter) add(words int64) {
	c.words.Add(words)
	c.msgs.Add(1)
}

// checkAbort unwinds the calling rank out of the current operation once
// the machine is aborted.
func (st *rankState) checkAbort() {
	if st.aborting.Load() {
		panic(abortPanic{})
	}
}

// abortPanic is the sentinel a rank panics with to unwind out of a
// blocking machine operation once the machine is aborted. A resident body
// recovers it and re-parks; it is never a run error.
type abortPanic struct{}

// IsAbort reports whether a recovered panic value is the abort sentinel
// (see Handle.Abort). Resident bodies use it to tell "the machine is
// being retired: re-park and wait to be released" from a genuine rank
// death.
func IsAbort(v any) bool {
	_, ok := v.(abortPanic)
	return ok
}

// Aborted panics with the abort sentinel. Transports that loop on
// PullTimeout call it when Wire.Aborting reports an abort, since the
// timeout path deliberately never panics on its own.
func Aborted() {
	panic(abortPanic{})
}

// Comm is a rank's handle to the machine. Exactly one goroutine may use a
// given Comm.
type Comm struct {
	m    *Machine
	rank int
	t    Transport
	st   *rankState
}

// newComm binds rank's handle over transport t.
func (m *Machine) newComm(rank int, t Transport) *Comm {
	return &Comm{m: m, rank: rank, t: t, st: &m.ranks[rank]}
}

// Rank returns this processor's id in 0..P-1.
func (c *Comm) Rank() int { return c.rank }

// Size returns P.
func (c *Comm) Size() int { return c.m.p }

// Send transmits a copy of data to the destination rank with the given
// tag, metering len(data) words. Sending to self is an error by panic —
// local data never counts as communication in the model. Under the direct
// transport Send does not block; a reliable transport blocks until the
// message is acknowledged.
func (c *Comm) Send(to, tag int, data []float64) {
	if to == c.rank {
		panic(fmt.Sprintf("machine: rank %d sending to itself", to))
	}
	if to < 0 || to >= c.m.p {
		panic(fmt.Sprintf("machine: send to rank %d of %d", to, c.m.p))
	}
	st := c.st
	st.checkAbort()
	cp := st.pool.get(len(data))
	copy(cp, data)
	st.sent.add(int64(len(data)))
	c.m.emitMsg(c.rank, EventSend, c.rank, to, tag, len(data), false)
	st.op = blockWord(BlockSend, to, tag)
	c.t.Send(to, tag, cp)
	st.ready(c.m)
	st.progress.Add(1)
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. Messages from the same (source, tag) are delivered
// in send order.
func (c *Comm) Recv(from, tag int) []float64 {
	pkt := c.recv(from, tag)
	c.received(from, tag, len(pkt.Data))
	return pkt.Data
}

// RecvInto is Recv into a caller-owned buffer: it copies the payload into
// dst and returns its length. Metering and trace events are identical to
// Recv. A poolable payload (the direct transport holds no reference after
// delivery) goes back to the sender's payload pool, so after warm-up an
// exchange loop built on Send/RecvInto allocates nothing, whatever order
// its messages arrive in and whichever way they flow (see payloadPool).
//
// The payload must fit: a message longer than dst panics, because a
// receiver that preplans exact message sizes (parallel.Session) can only
// reach that state through a protocol bug.
func (c *Comm) RecvInto(from, tag int, dst []float64) int {
	pkt := c.recv(from, tag)
	n := len(pkt.Data)
	if n > len(dst) {
		panic(fmt.Sprintf("machine: rank %d RecvInto(%d, %d): payload %d words, buffer %d",
			c.rank, from, tag, n, len(dst)))
	}
	copy(dst, pkt.Data)
	if pkt.Recycle {
		c.m.ranks[from].pool.giveBack(c.rank, pkt.Data)
	}
	c.received(from, tag, n)
	return n
}

// received meters and traces a completed receive.
func (c *Comm) received(from, tag, words int) {
	c.st.recv.add(int64(words))
	c.m.emitMsg(c.rank, EventRecv, from, c.rank, tag, words, false)
	c.st.progress.Add(1)
}

// recv is the one receive path: it returns the oldest held message from
// (from, tag), else waits on the transport, holding every other message
// it delivers for a later Recv. A transport's Recv may hold messages,
// return one, or both; what it returns was released after what it held,
// so when it held any, the result queues behind them and the held list
// is scanned again. A lone mismatch needs no scan, since it cannot match.
// The rank reads as blocked only while it waits, so it changes its held
// list only while it reads as running, where the watchdog never reads it.
func (c *Comm) recv(from, tag int) Packet {
	st := c.st
	st.checkAbort()
	scan := true
	for {
		if scan && st.nheld > 0 {
			if pkt, ok := st.take(from, tag); ok {
				return pkt
			}
		}
		n := st.nheld
		st.op = blockWord(BlockRecv, from, tag)
		pkt, ok := c.t.Recv(from, tag)
		st.ready(c.m)
		scan = st.nheld > n
		if !ok {
			continue
		}
		if !scan && pkt.From == from && pkt.Tag == tag {
			return pkt
		}
		st.hold(pkt)
	}
}

// AwaitHost runs wait with this rank parked as blocked on host input: a
// resident body (parallel.Session) calls it around its op-queue receive so
// the stall watchdog can tell an idle session — every unfinished rank
// waiting for the host to feed it work — from a genuine deadlock. wait
// typically blocks on a host-owned channel; returning from it counts as
// progress. The wait runs under the transport's Wait: peers may still be
// finishing the previous operation (or retransmitting a message whose ack
// was lost), and a rank that went quiet the moment its own part completed
// would stall them forever.
func (c *Comm) AwaitHost(wait func()) {
	st := c.st
	st.op = blockWord(BlockHost, -1, -1)
	st.publish(c.m, false)
	c.t.Wait(wait)
	st.ready(c.m)
	st.progress.Add(1)
}

// Meters is a point-in-time snapshot of one rank's eight traffic
// counters. A resident body can subtract two snapshots to attribute
// traffic to a single operation of a long-lived run.
type Meters struct {
	SentWords, RecvWords, SentMsgs, RecvMsgs                 int64
	WireSentWords, WireRecvWords, WireSentMsgs, WireRecvMsgs int64
}

// Sub returns the counter deltas m - o.
func (m Meters) Sub(o Meters) Meters {
	return Meters{
		SentWords: m.SentWords - o.SentWords, RecvWords: m.RecvWords - o.RecvWords,
		SentMsgs: m.SentMsgs - o.SentMsgs, RecvMsgs: m.RecvMsgs - o.RecvMsgs,
		WireSentWords: m.WireSentWords - o.WireSentWords, WireRecvWords: m.WireRecvWords - o.WireRecvWords,
		WireSentMsgs: m.WireSentMsgs - o.WireSentMsgs, WireRecvMsgs: m.WireRecvMsgs - o.WireRecvMsgs,
	}
}

// Meters returns this rank's current counter snapshot.
func (c *Comm) Meters() Meters { return c.m.meters(c.rank) }

// meters snapshots rank r's eight counters.
func (m *Machine) meters(r int) Meters {
	st := &m.ranks[r]
	return Meters{
		SentWords: st.sent.words, RecvWords: st.recv.words,
		SentMsgs: st.sent.msgs, RecvMsgs: st.recv.msgs,
		WireSentWords: st.wireSent.words.Load(), WireRecvWords: st.wireRecv.words.Load(),
		WireSentMsgs: st.wireSent.msgs.Load(), WireRecvMsgs: st.wireRecv.msgs.Load(),
	}
}

// RunConfig bundles the optional knobs of a simulated run.
type RunConfig struct {
	// Timeout arms the stall watchdog: when positive and no rank
	// completes a logical operation for this long, the run aborts with a
	// *DeadlockError naming each blocked rank. Zero disables the
	// watchdog. (Unlike a global wall-clock limit, a run that keeps
	// making progress is never killed.)
	Timeout time.Duration
	// Observer receives every structured trace event, invoked
	// synchronously from the goroutine of the rank the event occurs on;
	// it must be safe for concurrent use (see obs.Recorder for a
	// ready-made collector). Logical send/recv events sum exactly to the
	// Report's logical meters; retransmissions and other recovery
	// traffic appear only as wire events (see WireEvents).
	Observer func(Event)
	// WireEvents additionally emits an event for every raw wire datagram
	// (Event.Wire == true): retransmissions, injected duplicates, and
	// zero-word acks. Off by default — wire traffic can dwarf the
	// logical trace under aggressive fault plans.
	WireEvents bool
	// Transport builds each rank's transport; nil selects the direct
	// transport (exact in-order delivery, no protocol overhead).
	Transport TransportFactory
	// Backend supplies the raw packet layer; nil selects the in-memory
	// SimBackend. See internal/netwire for TCP and unix-socket backends.
	// The machine does not close the backend — its creator does.
	Backend Backend
	// BackendFactory, consulted only when Backend is nil, builds a fresh
	// backend per machine incarnation. Unlike Backend, the machine owns
	// the factory's product and closes it when the incarnation's last
	// rank goroutine exits — the shape a session pool needs, where one
	// options template launches many concurrent machines and a shared
	// socket backend would cross their packet streams.
	BackendFactory func() (Backend, error)
	// LocalRanks names the ranks this process runs; nil means all P (the
	// single-process default). A distributed launcher starts one machine
	// per process, each naming its own rank(s) here over a shared
	// network backend. The stall watchdog should stay disabled there (it
	// cannot see remote progress).
	LocalRanks []int
	// StartEpoch is the epoch the machine runs in (normally zero). Every
	// packet is stamped with it, and a receiving link drops packets of any
	// other epoch — so a successor incarnation started one epoch later over
	// reused wires (a session's recovery relaunch on a caller-owned socket
	// backend, a cluster rank's next resume) never sees its predecessor's
	// stale traffic, and no wire needs draining.
	StartEpoch int64
	// OnRankDown, when set, is invoked once from a dying rank's goroutine
	// after its body panics with anything other than the abort sentinel.
	// Setting it marks the run as supervised: the stall watchdog then
	// treats crashed ranks as non-blocking while the survivors park,
	// because a supervisor (parallel.Session's recovery loop) is expected
	// to relaunch the machine. The callback must not block for long and must be
	// safe for concurrent invocation from multiple dying ranks.
	OnRankDown func(rank int, err error)
}

// RunWith is the single run entry point: it executes body on P simulated
// processors under the given configuration (transport selection, stall
// watchdog, trace observer, backend) and returns the metered report. It
// is StartWith followed by Wait; callers that supervise the run —
// aborting it, carrying its meters onto a successor — use the Handle
// form directly (see handle.go).
func RunWith(p int, cfg RunConfig, body func(c *Comm)) (*Report, error) {
	h, err := StartWith(p, cfg, body)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// reportNow snapshots the machine's cumulative counters.
func (m *Machine) reportNow() *Report {
	ms := make([]Meters, m.p)
	for r := range ms {
		ms[r] = m.meters(r)
	}
	return NewReport(ms)
}

// progress sums the local ranks' completed logical operations.
func (m *Machine) progress() int64 {
	var n int64
	for _, r := range m.localRanks {
		n += m.ranks[r].progress.Load()
	}
	return n
}

// watch is the stall watchdog: it polls the ranks' progress counters and
// declares deadlock only after a full window with no logical operation
// completing anywhere.
func (m *Machine) watch(done <-chan struct{}, timeout time.Duration) error {
	poll := timeout / 8
	if poll < 500*time.Microsecond {
		poll = 500 * time.Microsecond
	}
	if poll > 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	last := m.progress()
	lastChange := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-ticker.C:
			if cur := m.progress(); cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				if m.hostQuiescent() {
					// An idle resident session: every unfinished rank
					// is parked in AwaitHost, waiting for the host to
					// feed it work. Not a deadlock — the host holds
					// the ball.
					lastChange = time.Now()
					continue
				}
				return m.deadlockError(timeout)
			}
		}
	}
}

// hostQuiescent reports whether at least one local rank is parked in
// AwaitHost and every other unfinished local rank is too — the signature
// of an idle resident session rather than a stalled protocol. Remote
// ranks are invisible here, which is one of the reasons the watchdog
// stays off in distributed rank processes.
func (m *Machine) hostQuiescent() bool {
	idle := false
	for _, r := range m.localRanks {
		kind, _, _ := m.ranks[r].blocked()
		switch kind {
		case BlockDone:
		case BlockCrashed:
			// Parked survivors of a crash wait for a completion that never
			// comes — unless a supervisor (OnRankDown) handles the crash,
			// and then they really are idle.
			if !m.recovering {
				return false
			}
		case BlockHost:
			idle = true
		default:
			return false
		}
	}
	return idle
}

// deadlockError snapshots every unfinished local rank's diagnostic state.
// A held list belongs to its rank, so the watchdog reads only the lists of
// ranks it froze: under snapMu, it marks each blocked rank's block word,
// and a frozen rank that wakes waits on snapMu before it goes on (see
// rankState.set). A rank found computing is reported without its list. A
// rank parked on a targeted wait may leave messages it does not want in
// its inbox, so its report lists them too; they are read first, since the
// frozen rank can still move one from its inbox but cannot hold it.
func (m *Machine) deadlockError(timeout time.Duration) *DeadlockError {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	e := &DeadlockError{P: m.p, Timeout: timeout}
	for _, r := range m.localRanks {
		st := &m.ranks[r]
		w := st.block.Load()
		for w != uint64(BlockNone) && w != uint64(BlockDone) && w != uint64(BlockCrashed) &&
			!st.block.CompareAndSwap(w, w|blockFrozen) {
			w = st.block.Load()
		}
		kind, peer, tag := decodeBlock(w)
		switch kind {
		case BlockDone:
			continue
		case BlockCrashed:
			e.Crashed = append(e.Crashed, r)
			continue
		}
		inbox := m.raws[r].Queued()
		wait := RankWait{Rank: r, Kind: kind, Peer: peer, Tag: tag, InboxPackets: len(inbox)}
		if kind != BlockNone {
			if w&blockTargeted == 0 {
				inbox = nil // a reliable transport's inbox is protocol traffic
			}
			wait.Pending = st.pending(inbox, m.epoch)
			st.block.CompareAndSwap(w|blockFrozen, w) // thaw unless the rank already woke
		}
		e.Waits = append(e.Waits, wait)
	}
	return e
}

// panicError converts recorded rank panics into the run error: the
// first injected crash, else the first exhausted retransmission budget,
// else the first other panic. It runs after every rank goroutine exited.
func (m *Machine) panicError() error {
	var first [3]error
	for _, rank := range m.localRanks {
		if pv := m.ranks[rank].panicVal; pv != nil {
			err, k := panicToError(rank, pv), 2
			switch err.(type) {
			case CrashError:
				k = 0
			case UnreachableError:
				k = 1
			}
			if first[k] == nil {
				first[k] = err
			}
		}
	}
	return cmp.Or(first[0], first[1], first[2])
}
