package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// BlockKind classifies what a rank is doing from the deadlock monitor's
// point of view.
type BlockKind int

const (
	// BlockNone: the rank is computing, or in a machine operation that
	// has not waited.
	BlockNone BlockKind = iota
	// BlockSend: waiting inside Send, which only a reliable transport
	// does, for an acknowledgement.
	BlockSend
	// BlockRecv: inside Recv, waiting for a matching message.
	BlockRecv
	// BlockDone: the rank's body returned normally.
	BlockDone
	// BlockCrashed: the rank's body panicked (fault-injected crash or a
	// genuine bug).
	BlockCrashed
	// BlockHost: inside AwaitHost — a resident body waiting for the host
	// to feed it the next operation. The watchdog treats a run in which
	// every unfinished rank is host-blocked as quiescent, not deadlocked.
	BlockHost
)

func (k BlockKind) String() string {
	switch k {
	case BlockNone:
		return "computing"
	case BlockSend:
		return "send"
	case BlockRecv:
		return "recv"
	case BlockDone:
		return "done"
	case BlockCrashed:
		return "crashed"
	case BlockHost:
		return "awaiting host"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// PendingEntry summarizes the messages a rank holds (released by its
// transport but not yet taken by a logical Recv) for one (from, tag).
type PendingEntry struct {
	From, Tag, Msgs, Words int
}

// RankWait describes one unfinished rank in a stalled run.
type RankWait struct {
	Rank int
	Kind BlockKind
	// Peer and Tag identify the operation the rank is blocked on: the
	// message source for BlockRecv, the destination for BlockSend.
	// Meaningless for other kinds.
	Peer, Tag int
	// InboxPackets counts raw packets sitting undrained in the rank's
	// mailbox at the time of the snapshot.
	InboxPackets int
	// Pending lists the messages the rank holds: released to it while it
	// waited for something else, and not yet taken by a Recv.
	Pending []PendingEntry
}

func (w RankWait) describe() string {
	var s string
	switch w.Kind {
	case BlockSend:
		s = fmt.Sprintf("blocked in send to rank %d (tag %d)", w.Peer, w.Tag)
	case BlockRecv:
		s = fmt.Sprintf("blocked in recv from rank %d (tag %d)", w.Peer, w.Tag)
	default:
		s = w.Kind.String()
	}
	s += fmt.Sprintf("; inbox holds %d packets", w.InboxPackets)
	if len(w.Pending) > 0 {
		parts := make([]string, len(w.Pending))
		for i, p := range w.Pending {
			parts[i] = fmt.Sprintf("from %d tag %d: %d msgs/%d words", p.From, p.Tag, p.Msgs, p.Words)
		}
		s += "; buffered {" + strings.Join(parts, "; ") + "}"
	}
	return s
}

// DeadlockError is returned by the progress monitor when no rank
// completes a logical operation for a full timeout window: each
// unfinished rank is named with the operation it is blocked on and the
// messages it holds, so a stuck protocol can be read off the error
// instead of debugged from a bare "timed out".
type DeadlockError struct {
	P       int
	Timeout time.Duration
	// Crashed lists ranks whose body panicked before the stall.
	Crashed []int
	// Waits describes every rank that had not finished, in rank order.
	Waits []RankWait
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: run of %d ranks timed out after %v without progress (deadlock)", e.P, e.Timeout)
	if len(e.Crashed) > 0 {
		fmt.Fprintf(&b, "; crashed ranks %v", e.Crashed)
	}
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "\n  rank %d: %s", w.Rank, w.describe())
	}
	return b.String()
}

// CrashError is the panic value a fault injector uses to kill a rank at a
// chosen point; the runner recognizes it and reports the crash as a
// structured error instead of a generic panic.
type CrashError struct {
	// Rank is the processor that crashed; Op is the wire-operation index
	// at which the injector fired.
	Rank, Op int
}

func (e CrashError) Error() string {
	return fmt.Sprintf("machine: rank %d crashed (fault injection at wire op %d)", e.Rank, e.Op)
}

// UnreachableError is the panic value a reliable transport uses when its
// bounded retransmission budget is exhausted without an acknowledgement —
// the symptom of a crashed or indefinitely stalled peer.
type UnreachableError struct {
	Rank, Peer, Tag, Attempts int
}

func (e UnreachableError) Error() string {
	return fmt.Sprintf("machine: rank %d could not reach rank %d (tag %d) after %d transmit attempts (peer crashed or stalled?)",
		e.Rank, e.Peer, e.Tag, e.Attempts)
}

// A rank's block word packs what it is blocked on into one atomic word
// that only the rank writes, and the watchdog marks frozen: kind in bits
// 0–3, the frozen mark in bit 4, the targeted-wait mark in bit 5, peer+1
// in bits 8–31, the tag in bits 32–63. Peers past 2²⁴−2 and tags outside
// int32 read back truncated.
const (
	blockFrozen   = 1 << 4
	blockTargeted = 1 << 5 // parked until one (from, tag) arrives
)

func blockWord(k BlockKind, peer, tag int) uint64 {
	return uint64(k) | uint64(uint32(peer+1)&0xffffff)<<8 | uint64(uint32(int32(tag)))<<32
}

func decodeBlock(w uint64) (k BlockKind, peer, tag int) {
	return BlockKind(w & 0xf), int(w>>8&0xffffff) - 1, int(int32(uint32(w >> 32)))
}

func (st *rankState) blocked() (BlockKind, int, int) { return decodeBlock(st.block.Load()) }

// publish writes the block word of the machine call the rank is in to
// block the first time the call is about to wait, marked targeted when
// the rank parks until one (from, tag) arrives. A call that never waits
// writes no atomic word.
func (st *rankState) publish(m *Machine, targeted bool) {
	if w := st.op; w != 0 {
		if targeted {
			w |= blockTargeted
		}
		st.op = 0
		st.set(m, w)
	}
}

// ready ends the rank's machine call, clearing its block word if the call
// published it.
func (st *rankState) ready(m *Machine) {
	if st.op == 0 {
		st.set(m, uint64(BlockNone))
	}
	st.op = 0
}

// set replaces the rank's block word and returns the old one, unfrozen. A
// frozen word means the watchdog is reading the rank's held list, so the
// rank waits for the snapshot to end before it can change the list.
func (st *rankState) set(m *Machine, w uint64) uint64 {
	old := st.block.Swap(w)
	if old&blockFrozen != 0 {
		m.snapMu.Lock()
		m.snapMu.Unlock()
	}
	return old &^ blockFrozen
}

// A rank holds its messages in one arena, each linked to the one its
// sender released before it, and a sender's lane points at its newest.
// Links are arena index+1, so 0 ends a chain; free chains the unused
// slots. The arena grows to the most messages the rank held at once.
type heldMsg struct {
	pkt  Packet
	next int32
}

// heldLane is one sender's chain: from is the sender+1, 0 in a free slot.
type heldLane struct{ from, head int32 }

// lane returns from's lane, making it if mk, else nil if from has none. A
// lane sits within 8 slots past its sender's rank modulo the table's
// power-of-two length, and the table doubles when a new sender finds no
// free slot there, so it grows with the senders held, not with P.
func (st *rankState) lane(from int, mk bool) *heldLane {
	for i := range min(len(st.lanes), 8) {
		l := &st.lanes[(from+i)&(len(st.lanes)-1)]
		if int(l.from) == from+1 {
			return l
		}
		if l.from == 0 {
			if !mk {
				return nil
			}
			l.from = int32(from + 1)
			return l
		}
	}
	if !mk {
		return nil
	}
	old := st.lanes
	st.lanes = make([]heldLane, max(64, 2*len(old)))
	for _, l := range old {
		if l.from != 0 {
			*st.lane(int(l.from-1), true) = l
		}
	}
	return st.lane(from, true)
}

// hold adds pkt to its sender's chain.
func (st *rankState) hold(pkt Packet) {
	l := st.lane(pkt.From, true)
	i := st.free
	if i == 0 {
		st.held = append(st.held, heldMsg{})
		i = int32(len(st.held))
	} else {
		st.free = st.held[i-1].next
	}
	m := &st.held[i-1] // set field by field: an 80-byte heldMsg copies through duffcopy
	m.pkt, m.next = pkt, l.head
	l.head = i
	st.nheld++
}

// take removes and returns the oldest held message from (from, tag),
// looking only at from's chain.
func (st *rankState) take(from, tag int) (Packet, bool) {
	l := st.lane(from, false)
	if l == nil {
		return Packet{}, false
	}
	var at *int32 // the link to the oldest match
	for link := &l.head; *link != 0; link = &st.held[*link-1].next {
		if st.held[*link-1].pkt.Tag == tag {
			at = link
		}
	}
	if at == nil {
		return Packet{}, false
	}
	i := *at
	m := &st.held[i-1]
	pkt := m.pkt
	*at, m.pkt, m.next, st.free = m.next, Packet{}, st.free, i
	st.nheld--
	return pkt, true
}

// pending summarizes the held messages, and the inbox packets of epoch
// epoch, per (from, tag), sorted by sender then tag. The watchdog calls
// it only on a rank it froze.
func (st *rankState) pending(inbox []Packet, epoch int64) []PendingEntry {
	var out []PendingEntry
	add := func(pkt *Packet) {
		key := PendingEntry{From: pkt.From, Tag: pkt.Tag}
		i, found := slices.BinarySearchFunc(out, key, func(a, b PendingEntry) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Tag, b.Tag))
		})
		if !found {
			out = slices.Insert(out, i, key)
		}
		out[i].Msgs++
		out[i].Words += len(pkt.Data)
	}
	for _, l := range st.lanes {
		for i := l.head; i != 0; i = st.held[i-1].next {
			add(&st.held[i-1].pkt)
		}
	}
	for i := range inbox {
		if inbox[i].Epoch == epoch {
			add(&inbox[i])
		}
	}
	return out
}
