package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// BlockKind classifies what a rank is doing from the deadlock monitor's
// point of view.
type BlockKind int

const (
	// BlockNone: the rank is computing (not inside a machine operation).
	BlockNone BlockKind = iota
	// BlockSend: inside Send — under a reliable transport this means
	// waiting for an acknowledgement.
	BlockSend
	// BlockRecv: inside Recv, waiting for a matching message.
	BlockRecv
	// BlockBarrier: waiting for the other ranks at a barrier.
	BlockBarrier
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
	case BlockBarrier:
		return "barrier"
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
	case BlockBarrier:
		s = "blocked in barrier"
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

// rankDiag is one rank's monitor-visible state. The owning rank updates
// it at blocking-operation boundaries; the watchdog reads it when a run
// stalls. All access goes through the mutex, except that the owning rank
// — the only writer of held — may read len(held) without it.
type rankDiag struct {
	mu        sync.Mutex
	kind      BlockKind
	peer, tag int
	// held lists the messages released to the rank that no Recv has
	// taken yet, in release order.
	held     []Packet
	panicVal any
}

func (d *rankDiag) setBlocked(k BlockKind, peer, tag int) {
	d.mu.Lock()
	d.kind, d.peer, d.tag = k, peer, tag
	d.mu.Unlock()
}

func (d *rankDiag) setRunning() {
	d.mu.Lock()
	d.kind = BlockNone
	d.mu.Unlock()
}

func (d *rankDiag) setDone() {
	d.mu.Lock()
	d.kind = BlockDone
	d.mu.Unlock()
}

func (d *rankDiag) setPanic(v any) {
	d.mu.Lock()
	d.kind = BlockCrashed
	d.panicVal = v
	d.mu.Unlock()
}

func (d *rankDiag) panicValue() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.panicVal
}

func (d *rankDiag) blocked() (BlockKind, int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kind, d.peer, d.tag
}

// hold appends pkt to the held list.
func (d *rankDiag) hold(pkt Packet) {
	d.mu.Lock()
	d.held = append(d.held, pkt)
	d.mu.Unlock()
}

// take removes and returns the oldest held message from (from, tag). The
// list keeps its backing array, so a steady out-of-order exchange stops
// allocating once the list has grown to its high-water length.
func (d *rankDiag) take(from, tag int) (Packet, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, pkt := range d.held {
		if pkt.From == from && pkt.Tag == tag {
			n := copy(d.held[i:], d.held[i+1:])
			d.held[i+n] = Packet{}
			d.held = d.held[:i+n]
			return pkt, true
		}
	}
	return Packet{}, false
}

// pending summarizes the held list per (from, tag), sorted by sender then
// tag.
func (d *rankDiag) pending() []PendingEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []PendingEntry
	for _, pkt := range d.held {
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
	return out
}
