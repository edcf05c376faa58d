package fault

import (
	"time"

	"repro/internal/machine"
)

// ReliableOptions tunes the recovery protocol.
type ReliableOptions struct {
	// MaxAttempts bounds transmissions of one message (first send
	// included); exhausting it panics with machine.UnreachableError.
	// Default 40.
	MaxAttempts int
	// AckTimeout is the initial retransmission timeout; it doubles per
	// retry (exponential backoff). Default 500µs.
	AckTimeout time.Duration
	// MaxAckTimeout caps the backoff. Default 50ms.
	MaxAckTimeout time.Duration
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 40
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 500 * time.Microsecond
	}
	if o.MaxAckTimeout <= 0 {
		o.MaxAckTimeout = 50 * time.Millisecond
	}
	return o
}

// Transport returns a machine.TransportFactory that runs the reliable
// transport, tuned by opt, over a wire perturbed by plan — the standard
// way to wire fault injection into a simulated run:
//
//	cfg := machine.RunConfig{Transport: fault.Transport(plan, fault.ReliableOptions{})}
//	machine.RunWith(p, cfg, body)
//
// Logical results and logical communication meters are identical to the
// fault-free run for any benign plan (no crash); recovery traffic shows
// up only in the wire meters. Every transport the factory builds for a
// rank shares the rank's Decider, so each rank's scheduled crash fires
// once per factory: a recovering session's relaunched ranks stay
// recovered, and a one-shot run, which dies at its first crash, is
// unaffected.
func Transport(plan Plan, opt ReliableOptions) machine.TransportFactory {
	inject := perRank(plan)
	opt = opt.withDefaults()
	return func(w machine.Wire) machine.Transport {
		p := w.Size()
		return &reliable{w: inject(w), opt: opt,
			nextSeq: make([]int32, p),
			expect:  make([]int32, p),
			parked:  make([]map[int32]machine.Packet, p),
		}
	}
}

// reliable is one machine incarnation's transport. Its sequence state
// never has to survive a recovery: a recovering supervisor relaunches the
// whole machine one epoch later with fresh transports, and the link's
// epoch fence keeps every packet of the retired incarnation away from
// them.
//
// The protocol: every data packet carries a per-(sender→receiver)
// sequence number and a payload checksum; the receiver acknowledges every
// intact data packet (including duplicates), drops corrupt ones silently,
// de-duplicates by sequence number, and releases payloads strictly in
// sequence order, parking out-of-order arrivals until the gap fills. Every
// released payload goes to the machine through Wire.Hold, whether Recv,
// Send or Wait released it. The sender blocks until its packet is
// acknowledged, retransmitting with exponential backoff, and services
// incoming data packets while it waits so that two ranks sending to each
// other cannot deadlock.
type reliable struct {
	w   machine.Wire
	opt ReliableOptions
	// nextSeq[to] is the sequence number for the next message to rank to.
	// Sequence numbers wrap, and are compared by their int32 difference
	// (seqAfter), which holds while fewer than 2³¹ messages are in flight
	// between a pair.
	nextSeq []int32
	// expect[from] is the next in-order sequence number from rank from.
	expect []int32
	// parked[from] holds intact packets that arrived ahead of sequence.
	// They are protocol state, not messages: no Recv can take one until
	// the gap before it heals.
	parked []map[int32]machine.Packet
}

// seqAfter reports whether sequence number a comes after b.
func seqAfter(a, b int32) bool { return a-b > 0 }

func (r *reliable) Send(to, tag int, data []float64) {
	seq := r.nextSeq[to]
	r.nextSeq[to]++
	pkt := machine.Packet{
		From: r.w.Rank(), To: to, Tag: tag, Seq: seq,
		Kind: machine.PacketData, Data: data, Check: machine.Checksum(data),
	}
	r.w.Deliver(pkt)
	attempts := 1
	timeout := r.opt.AckTimeout
	for {
		if r.w.Aborting() {
			// The ack we are waiting for was rolled back with the rest of
			// the epoch; unwind instead of retransmitting into the fence.
			machine.Aborted()
		}
		in, ok := r.w.PullTimeout(timeout)
		if !ok {
			if attempts >= r.opt.MaxAttempts {
				panic(machine.UnreachableError{Rank: r.w.Rank(), Peer: to, Tag: tag, Attempts: attempts})
			}
			attempts++
			r.w.Deliver(pkt)
			if timeout *= 2; timeout > r.opt.MaxAckTimeout {
				timeout = r.opt.MaxAckTimeout
			}
			continue
		}
		switch in.Kind {
		case machine.PacketAck:
			if in.From == to && in.Seq == seq {
				return // acknowledged
			}
			// Stale ack of an already-completed send (a duplicate, or the
			// ack of a retransmission that raced the original): ignore.
		case machine.PacketData:
			r.handleData(in)
		}
	}
}

// Recv services one packet and returns !ok: whatever it releases has gone
// to Wire.Hold. It pulls any packet, whatever the rank awaits: acks and
// out-of-sequence data must be serviced too. The sender's Recycle mark is
// never set, because the sender's retransmission window may still alias
// the buffer.
func (r *reliable) Recv(int, int) (machine.Packet, bool) {
	if in := r.w.Pull(-1, -1); in.Kind == machine.PacketData {
		r.handleData(in)
	}
	// Stray acks while not sending are duplicates; drop them.
	return machine.Packet{}, false
}

// handleData acknowledges, de-duplicates, order-restores and releases an
// incoming data packet.
func (r *reliable) handleData(pkt machine.Packet) {
	if pkt.Check != machine.Checksum(pkt.Data) {
		return // corrupted in flight: no ack, the sender will retransmit
	}
	r.w.Deliver(machine.Packet{
		From: r.w.Rank(), To: pkt.From, Tag: pkt.Tag, Seq: pkt.Seq,
		Kind: machine.PacketAck,
	})
	from := pkt.From
	switch {
	case seqAfter(r.expect[from], pkt.Seq):
		// Duplicate of an already-released packet; the re-ack above is
		// all it needed.
	case seqAfter(pkt.Seq, r.expect[from]):
		if r.parked[from] == nil {
			r.parked[from] = make(map[int32]machine.Packet)
		}
		r.parked[from][pkt.Seq] = pkt // idempotent for duplicates
	default:
		r.w.Hold(pkt)
		r.expect[from]++
		for {
			next, ok := r.parked[from][r.expect[from]]
			if !ok {
				break
			}
			delete(r.parked[from], r.expect[from])
			r.w.Hold(next)
			r.expect[from]++
		}
	}
}

// Wait runs block on a helper goroutine while the rank goroutine services
// the wire in full: intact data packets are acknowledged, de-duplicated
// and released to the machine for later Recvs, exactly as during Send's
// ack-wait. The protocol state stays owned by the rank goroutine; block
// only waits (for host input) and touches none of it.
func (r *reliable) Wait(block func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		block()
	}()
	r.service(done, false)
}

// Linger answers retransmissions after the rank's body has returned: only
// duplicates of already-released packets are re-acked. A genuinely new
// message is left unacknowledged — its sender is entitled to an
// UnreachableError, because the receiving body really did exit without
// consuming it.
func (r *reliable) Linger(stop <-chan struct{}) { r.service(stop, true) }

func (r *reliable) service(stop <-chan struct{}, dupOnly bool) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		in, ok := r.w.PullTimeout(200 * time.Microsecond)
		if !ok || in.Kind != machine.PacketData {
			continue
		}
		if dupOnly && !seqAfter(r.expect[in.From], in.Seq) {
			continue
		}
		r.handleData(in)
	}
}
