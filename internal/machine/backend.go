package machine

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Backend supplies the raw packet layer a machine runs on: one BackendWire
// per local rank. The default SimBackend moves packets through in-memory
// mailboxes (the simulator the paper's meters were built on);
// internal/netwire provides TCP and unix-domain-socket backends that move
// the same packets through length-prefixed frames on real sockets, so the
// P ranks can run as separate OS processes.
//
// The seam sits below machine.Wire: a backend wire only moves packets.
// Everything the Wire contract promises on top — logical/wire metering,
// epoch stamping on Deliver and epoch fencing on Pull, abort unwinding,
// holding released messages for Recv and the deadlock report — is layered
// on uniformly by the machine, so a TransportFactory (direct, reliable,
// fault-injected) composes unchanged over any backend.
type Backend interface {
	// NewWire returns rank's raw endpoint on a machine of the given size.
	// Called once per local rank at machine start. A backend that outlives
	// a machine may hand the same wire to the next incarnation: packets
	// still buffered from the old one carry its epoch, and the successor's
	// epoch fence drops them on Pull.
	NewWire(rank, size int) (BackendWire, error)
	// Close releases the backend's resources (sockets, listeners,
	// goroutines). The machine never calls it — the backend's creator
	// owns its lifecycle, because one backend may outlive several runs.
	Close() error
}

// BackendWire is one rank's raw packet endpoint as a Backend provides it:
// pure packet movement, with none of the Wire contract's metering or
// epoch semantics (the machine decorates those on).
type BackendWire interface {
	// Deliver pushes pkt toward pkt.To. It may block on backpressure (a
	// full TCP send buffer). Delivery to an unreachable peer is dropped
	// without an error — lossy-close semantics, reported only through
	// OnDrop; a recovery supervisor, not the wire, resolves the resulting
	// stall.
	Deliver(pkt Packet)
	// Pull blocks until a packet addressed to this rank arrives and
	// returns the oldest one. from and tag name the packet the rank awaits
	// (from < 0: any packet): a rank parked on an empty wire wakes only
	// when that packet arrives. A close of the abort channel wakes the
	// wait with ok == false.
	Pull(from, tag int, abort <-chan struct{}) (Packet, bool)
	// PullTimeout waits at most d for any packet; ok is false on timeout.
	// A non-positive d only polls.
	PullTimeout(d time.Duration) (Packet, bool)
	// Queued returns a copy of the buffered undelivered packets, oldest
	// first (deadlock diagnostics).
	Queued() []Packet
	// PacketCost prices pkt for the wire meters. The simulator charges
	// len(Data) words; a real-network wire returns the framed size in
	// 8-byte words (header, payload and frame checksum included), so the
	// Report's wire-vs-logical split measures what actually crossed the
	// socket.
	PacketCost(pkt Packet) int64
	// OnDrop registers fn to be called for every packet the wire loses —
	// a send to a dead peer, a write error, an injected chaos fault — so
	// the machine can count drops as EventDrop wire events. fn runs on
	// whatever goroutine lost the packet: the one that performed the
	// Deliver, or a socket reader that refused a misaddressed frame. A
	// wire that never drops a packet ignores it.
	OnDrop(fn func(pkt Packet, reason string))
}

// PacketQueue is an unbounded FIFO packet queue with a single consumer
// and many producers — the mailbox the simulator runs on, exported so
// socket backends can reuse it as their inbound queue. Unlike a
// fixed-capacity channel it cannot silently deadlock a protocol whose
// in-flight message count exceeds a preset buffer size; the backing array
// compacts in place, so a steady-state producer/consumer pair stops
// allocating once it has grown to the high-water depth.
type PacketQueue struct {
	mu   sync.Mutex
	q    []Packet
	head int
	// wantFrom and wantTag name the packet a consumer about to wait on
	// notify awaits: wantFrom is -1 for any packet and noWaiter while no
	// consumer waits. Only a push of that packet clears it and sends the
	// wake-up, so a push the consumer does not await touches no channel.
	wantFrom, wantTag int
	notify            chan struct{} // consumer wake-up; a stale token costs one spurious loop
}

const noWaiter = -2

// NewPacketQueue returns an empty queue.
func NewPacketQueue() *PacketQueue {
	return &PacketQueue{wantFrom: noWaiter, notify: make(chan struct{}, 1)}
}

// Push appends a packet; it never blocks.
func (b *PacketQueue) Push(p Packet) {
	b.mu.Lock()
	if b.head > 0 && len(b.q) == cap(b.q) {
		// Reclaim the consumed prefix before growing the array.
		n := copy(b.q, b.q[b.head:])
		for i := n; i < len(b.q); i++ {
			b.q[i] = Packet{}
		}
		b.q = b.q[:n]
		b.head = 0
	}
	b.q = append(b.q, p)
	wake := b.wantFrom == -1 || b.wantFrom == p.From && b.wantTag == p.Tag
	if wake {
		b.wantFrom = noWaiter
	}
	b.mu.Unlock()
	if wake {
		select {
		case b.notify <- struct{}{}:
		default:
		}
	}
}

// Pull removes the oldest packet. On an empty queue it waits until a
// packet from (from, tag) arrives, or any packet when from < 0. A close of
// the abort channel (nil to wait forever) wakes the wait with ok == false
// so a rank blocked on an empty queue can unwind during an abort.
func (b *PacketQueue) Pull(from, tag int, abort <-chan struct{}) (Packet, bool) {
	return b.pull(from, tag, -1, abort)
}

// PullTimeout waits at most d for any packet; ok is false on timeout. A
// non-positive d only polls.
func (b *PacketQueue) PullTimeout(d time.Duration) (Packet, bool) {
	return b.pull(-1, 0, max(d, 0), nil)
}

// pull removes the oldest packet, waiting on an empty queue for one from
// (from, tag) at most d, without limit when d < 0.
func (b *PacketQueue) pull(from, tag int, d time.Duration, abort <-chan struct{}) (Packet, bool) {
	var expired <-chan time.Time
	for {
		b.mu.Lock()
		if b.head < len(b.q) {
			p := b.q[b.head]
			b.q[b.head] = Packet{}
			b.head++
			if b.head == len(b.q) {
				b.q = b.q[:0]
				b.head = 0
			}
			b.mu.Unlock()
			return p, true
		}
		if d == 0 {
			b.mu.Unlock()
			return Packet{}, false
		}
		b.wantFrom, b.wantTag = max(from, -1), tag
		b.mu.Unlock()
		if d > 0 && expired == nil {
			t := time.NewTimer(d)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-b.notify:
		case <-abort:
			return Packet{}, false
		case <-expired:
			return Packet{}, false
		}
	}
}

// Queued returns a copy of the buffered packets, oldest first.
func (b *PacketQueue) Queued() []Packet {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.q[b.head:])
}

// SimBackend is the default backend: per-rank in-memory mailboxes, exactly
// the simulated network the repo's communication meters were validated on.
// The zero value is unusable; use NewSimBackend. A SimBackend serves one
// machine at a time (its mailboxes are sized at the first NewWire).
type SimBackend struct {
	mu    sync.Mutex
	size  int
	boxes []*PacketQueue
}

// NewSimBackend returns an in-memory mailbox backend with unbounded
// mailboxes.
func NewSimBackend() *SimBackend { return &SimBackend{} }

// NewWire returns rank's mailbox endpoint, allocating the mailbox array on
// first use.
func (b *SimBackend) NewWire(rank, size int) (BackendWire, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.boxes == nil {
		b.size = size
		b.boxes = make([]*PacketQueue, size)
		for i := range b.boxes {
			b.boxes[i] = NewPacketQueue()
		}
	}
	if size != b.size {
		return nil, fmt.Errorf("machine: SimBackend sized for %d ranks, wire requested for machine of %d", b.size, size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("machine: SimBackend wire for rank %d of %d", rank, size)
	}
	return &simWire{boxes: b.boxes, PacketQueue: b.boxes[rank]}, nil
}

// Close is a no-op: mailboxes hold no OS resources.
func (b *SimBackend) Close() error { return nil }

// simWire is a rank's raw endpoint on the mailbox backend. It prices a
// packet at its payload words and never drops one.
type simWire struct {
	boxes        []*PacketQueue
	*PacketQueue // this rank's mailbox: Pull, PullTimeout and Queued
}

func (w *simWire) Deliver(pkt Packet)          { w.boxes[pkt.To].Push(pkt) }
func (w *simWire) PacketCost(pkt Packet) int64 { return int64(len(pkt.Data)) }
func (w *simWire) OnDrop(func(Packet, string)) {}
