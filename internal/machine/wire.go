package machine

import (
	"fmt"
	"math"
	"time"
)

// PacketKind distinguishes raw wire datagrams.
type PacketKind uint8

const (
	// PacketData carries a logical message payload (or a transport's
	// retransmission of one).
	PacketData PacketKind = iota
	// PacketAck carries a transport acknowledgement. Acks move no logical
	// payload and are metered as zero-word wire messages.
	PacketAck
)

func (k PacketKind) String() string {
	switch k {
	case PacketData:
		return "data"
	case PacketAck:
		return "ack"
	}
	return fmt.Sprintf("PacketKind(%d)", int(k))
}

// Packet is one raw wire datagram. The logical Send/Recv API never sees
// packets; transports do, and fault injectors perturb them. Its 72 bytes
// copy in registers: every packet is copied on each hop from Send to
// Recv, and at 80 bytes or more the compiler calls a copy routine.
type Packet struct {
	From, To, Tag int
	// Seq is a transport-assigned per-(sender→receiver) sequence number
	// (0 under the direct transport, which needs none).
	Seq  int32
	Kind PacketKind
	// Recycle marks Data as eligible for the sender's payload pool once
	// the final consumer has copied it out (see Comm.RecvInto). Only a
	// transport that retains no reference to Data after delivery may set
	// it — the direct transport does; the reliable transport must not
	// (its retransmission window aliases the buffer), and a fault
	// injector duplicating a packet must clear it on the copy.
	Recycle bool
	Data    []float64
	// Check is a payload checksum set and verified by transports that
	// detect corruption; the direct transport ignores it.
	Check uint64
	// Epoch is the epoch of the machine that delivered the packet, stamped
	// by the wire on Deliver. A receiving machine drops packets of any
	// other epoch before they reach its transport: on wires reused across
	// incarnations (RunConfig.StartEpoch) that fences off a retired
	// machine's stale retransmissions.
	Epoch int64
}

// 64-bit FNV-1a: the one checksum of the repository's wire and
// checkpoint formats.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// Checksum is FNV-1a over the words' IEEE-754 bit patterns, each word
// low byte first: the payload checksum a reliable transport puts in
// Packet.Check, and a checkpoint record's page fingerprint.
func Checksum(words []float64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range words {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// ChecksumBytes is FNV-1a over b: a netwire frame's trailer, and a
// checkpoint record's header checksum.
func ChecksumBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Wire is a rank's raw endpoint on the simulated network: push a packet
// into any destination mailbox, pull the next packet addressed to this
// rank. Wire traffic is metered separately from the logical meters, so
// retransmissions and acks never perturb the communication counts the
// paper's theory bounds. Exactly one goroutine (the owning rank) may call
// Pull/PullTimeout/Hold on a given Wire.
type Wire interface {
	// Rank returns the owning processor's id in 0..P-1.
	Rank() int
	// Size returns P.
	Size() int
	// Deliver pushes pkt into the mailbox of pkt.To, metering wire words
	// and messages at the sender.
	Deliver(pkt Packet)
	// Pull blocks until a packet addressed to this rank arrives and
	// returns the oldest one, metering wire words at the receiver. from
	// and tag name the packet the rank awaits (from < 0: any packet); a
	// rank parked on an empty mailbox wakes only when that packet arrives.
	Pull(from, tag int) Packet
	// PullTimeout waits at most d for any packet; ok is false on timeout.
	PullTimeout(d time.Duration) (Packet, bool)
	// Hold hands a released logical message to the machine, which keeps
	// it, in hold order, until a Recv for its (From, Tag) takes it. The
	// deadlock report lists whatever is still held.
	Hold(pkt Packet)
	// Aborting reports whether the machine is aborted (Handle.Abort). A
	// transport looping on PullTimeout — waiting for an acknowledgement,
	// say — must check it each iteration and call Aborted() to unwind,
	// because PullTimeout itself never panics (it also runs inside
	// park/linger loops that must survive the abort).
	Aborting() bool
}

// Transport carries a rank's logical messages over the raw wire and
// delivers them in per-sender order; the machine's Comm matches them to
// Recvs by (source, tag). The direct transport maps one message onto one
// packet; package fault provides a reliable transport (acks,
// retransmission, dedup, reordering repair) that preserves logical
// semantics over a faulty wire.
type Transport interface {
	Send(to, tag int, data []float64)
	// Recv blocks until the transport has a logical message for this rank
	// and returns it with ok true; pkt.Recycle tells whether the payload
	// may go back to its sender's payload pool once copied out. from and
	// tag name the message the rank awaits, a wake hint for Wire.Pull; the
	// result may be any message. A transport may also hand messages it
	// released to Wire.Hold, either before the one it returns or instead
	// of one (ok false); the caller then looks at its held messages again,
	// oldest first. Messages released outside Recv — during a Send's ack
	// wait, or in Wait — must go to Wire.Hold too.
	Recv(from, tag int) (pkt Packet, ok bool)
	// Wait runs block, which parks the rank outside Send/Recv (waiting
	// for host input), and returns after block has.
	// A transport whose peers may still need answers meanwhile — a lost
	// acknowledgement strands its sender once the receiver stops pulling
	// its mailbox — services the wire in full while block runs, so block
	// may run on another goroutine and must not touch the transport.
	Wait(block func())
	// Linger services protocol echoes only (re-acking duplicates of
	// already-delivered messages) until stop is closed; the machine calls
	// it after the rank's body returns, so peers retransmitting into this
	// rank's mailbox can still complete. A message the body never received
	// must NOT be acknowledged here — its sender is entitled to an
	// UnreachableError.
	//
	// stop closes once every local body has returned. In a distributed run
	// that is this process's bodies only, so a rank process keeps its body
	// parked in AwaitHost (whose Wait services the wire) until its
	// coordinator has heard every rank finish, and no peer is left
	// retransmitting into silence.
	Linger(stop <-chan struct{})
}

// TransportFactory builds one rank's transport around its raw wire
// endpoint. It is called once per rank and machine incarnation, from that
// rank's goroutine, so a transport never outlives its machine's epoch.
type TransportFactory func(w Wire) Transport

// link is the concrete Wire implementation: the machine's metering,
// epoch-stamping and abort-unwinding decorator over a backend's raw wire.
// Every backend — the in-memory SimBackend, a TCP or unix-socket netwire —
// gets identical Wire semantics because this layer is shared.
type link struct {
	m    *Machine
	rank int
	st   *rankState
	raw  BackendWire
}

func newLink(m *Machine, rank int, raw BackendWire) *link {
	if m.wireEvents {
		// Promote the wire's loss reports into the structured event
		// stream: one EventDrop per lost datagram. Wire-only — drops never
		// touch the logical meters the paper's bounds are checked against.
		// A drop may be reported off the rank's goroutine, so it is
		// stamped without the rank's phase and op scope.
		raw.OnDrop(func(pkt Packet, reason string) {
			if m.observer != nil {
				m.stamp(rank, Event{Kind: EventDrop, From: rank, To: pkt.To, Tag: pkt.Tag, Words: len(pkt.Data), Step: -1, Wire: true})
			}
		})
	}
	return &link{m: m, rank: rank, st: &m.ranks[rank], raw: raw}
}

func (l *link) Rank() int { return l.rank }
func (l *link) Size() int { return l.m.p }

func (l *link) Deliver(pkt Packet) {
	if pkt.To < 0 || pkt.To >= l.m.p {
		panic(fmt.Sprintf("machine: deliver to rank %d of %d", pkt.To, l.m.p))
	}
	pkt.Epoch = l.m.epoch
	l.st.wireSent.add(l.raw.PacketCost(pkt))
	if l.m.wireEvents {
		l.m.emitMsg(l.rank, EventSend, l.rank, pkt.To, pkt.Tag, len(pkt.Data), true)
	}
	l.raw.Deliver(pkt)
}

// Pull returns into a named result for the reason directTransport.Recv
// does: it saves two copies of the packet on every pull. A rank that finds
// its mailbox empty publishes its block word before it parks.
func (l *link) Pull(from, tag int) (pkt Packet) {
	for {
		l.st.checkAbort()
		var ok bool
		if pkt, ok = l.raw.PullTimeout(0); !ok {
			l.st.publish(l.m, from >= 0)
			if pkt, ok = l.raw.Pull(from, tag, l.m.abortCh[l.rank]); !ok {
				continue // the abort channel woke us; the check above unwinds
			}
		}
		if pkt.Epoch == l.m.epoch { // else stale traffic of a retired incarnation
			l.pulled(&pkt)
			return pkt
		}
	}
}

// PullTimeout reads a stale-epoch packet as silence, never as a panic:
// this path also serves the transports' Wait and Linger loops, which must
// survive an abort intact. A wait (d > 0) publishes the block word.
func (l *link) PullTimeout(d time.Duration) (Packet, bool) {
	if d > 0 {
		l.st.publish(l.m, false)
	}
	pkt, ok := l.raw.PullTimeout(d)
	if !ok || pkt.Epoch != l.m.epoch {
		return Packet{}, false
	}
	l.pulled(&pkt)
	return pkt, true
}

// pulled meters and traces a packet pulled off the wire.
func (l *link) pulled(pkt *Packet) {
	l.st.wireRecv.add(l.raw.PacketCost(*pkt))
	if l.m.wireEvents {
		l.m.emitMsg(l.rank, EventRecv, pkt.From, l.rank, pkt.Tag, len(pkt.Data), true)
	}
}

func (l *link) Aborting() bool { return l.st.aborting.Load() }

// Hold holds a message the transport released in its Send, Recv or Wait,
// leaving the rank's block word as it was: the rank reads as running while
// it changes its held messages.
func (l *link) Hold(pkt Packet) {
	w := l.st.set(l.m, uint64(BlockNone))
	l.st.hold(pkt)
	l.st.set(l.m, w)
}

// directTransport is the default transport: a logical message is exactly
// one packet, delivery is exact and in order (the simulated network is
// perfect), so no acks, sequence numbers, or retransmission are needed.
type directTransport struct{ w Wire }

// NewDirectTransport returns the default transport over w. It is exported
// so fault injectors can compose it over a perturbed wire.
func NewDirectTransport(w Wire) Transport { return &directTransport{w: w} }

func (t *directTransport) Send(to, tag int, data []float64) {
	// Recycle: the direct transport keeps no reference past Deliver, so
	// the receiver may return the buffer to the payload pool.
	t.w.Deliver(Packet{From: t.w.Rank(), To: to, Tag: tag, Kind: PacketData, Data: data, Recycle: true})
}

// Recv returns the next packet as it arrives, passing the wake hint
// through. With the named result the compiler copies the packet once;
// returning t.w.Pull() directly copies it three times (go1.24 amd64
// listing).
func (t *directTransport) Recv(from, tag int) (pkt Packet, ok bool) {
	pkt = t.w.Pull(from, tag)
	return pkt, true
}

// Wait runs block inline: nothing on a perfect wire needs answering while
// the rank waits.
func (t *directTransport) Wait(block func()) { block() }

// Linger returns at once: no peer ever waits on this rank's replies.
func (t *directTransport) Linger(<-chan struct{}) {}
