package netwire

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// faultWire is the socket-level realization of a fault.Plan: it perturbs
// the framed bytes a node writes, below the codec and below the reliable
// transport, so retransmissions and acks cross a genuinely hostile wire.
// One faultWire decorates one node (one rank); its PRNG is seeded with
// the same per-rank formula as the simulated injector
// (plan.Seed ^ (0x9e3779b97f4a7c * (rank+1))), so the same plan seeds
// drive both the sim and the socket grids and the two runs are
// comparable.
//
// The fault vocabulary maps onto frames as follows:
//
//	drop     the frame is never written
//	dup      the frame is written twice
//	reorder  the frame is held and flushed after the next outbound frame
//	corrupt  one byte of the frame body is flipped; the receiver's FNV-1a
//	         trailer check fails and the whole connection is dropped
//	         (lossy-close semantics — heavier than the sim's single-packet
//	         corruption, and deliberately so)
//	stall    the sending rank sleeps StallDelay before the write
//	reset    half the frame is written, then the connection is torn down;
//	         the receiver sees a torn frame and drops the stream
//	crash    the rank panics with machine.CrashError at its Nth send
//
// Every class except stall destroys or delays delivery, so a chaos-wired
// run needs the reliable transport above it, exactly as in the simulator.
type faultWire struct {
	plan fault.Plan

	mu     sync.Mutex
	rng    *rand.Rand
	ops    int // send calls so far (crash clock)
	faults int // injected faults so far (MaxFaults budget)
	held   *heldFrame
}

// heldFrame is one reordered frame waiting for the next send.
type heldFrame struct {
	to    int
	frame []byte
	pkt   machine.Packet // for drop reporting if the flush write fails
}

// frameAction is one decided write: a destination, the bytes, and whether
// the write should be torn mid-frame with the connection closed after it.
type frameAction struct {
	to    int
	frame []byte
	reset bool
	pkt   machine.Packet
}

// newFaultWire returns the chaos state for one rank's node, or nil when
// the plan injects nothing.
func newFaultWire(plan fault.Plan, rank int) *faultWire {
	if !plan.Active() {
		return nil
	}
	return &faultWire{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed ^ (0x9e3779b97f4a7c * int64(rank+1)))),
	}
}

// send perturbs and writes one outbound packet for nd. It mirrors the
// simulated injector's structure: every probability is drawn up front so
// the random stream advances identically regardless of which faults fire,
// the crash clock counts send calls, and MaxFaults caps the budget.
func (fw *faultWire) send(nd *node, to int, pkt machine.Packet) error {
	actions, crash := fw.decide(nd, to, pkt)
	if crash != nil {
		panic(*crash)
	}
	var firstErr error
	for _, a := range actions {
		err := nd.writeFrame(a.to, a.frame, a.reset)
		if a.reset {
			// The torn write is the fault, not a wire failure: the frame is
			// gone by design, which the drop hook records.
			nd.reportDrop(a.pkt, "reset")
			continue
		}
		if err != nil {
			nd.reportDrop(a.pkt, err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// decide draws this send's fault decisions and returns the writes to
// perform. It holds fw.mu for the PRNG and the held-frame slot; the stall
// sleep happens under the lock, which only serializes this rank's own
// sends — the same semantics as the simulated injector sleeping on the
// sending goroutine.
func (fw *faultWire) decide(nd *node, to int, pkt machine.Packet) ([]frameAction, *machine.CrashError) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.ops++
	// The crash clock passes each op index exactly once, so == fires the
	// crash exactly once: a relaunched machine reuses this node and
	// continues the count past the crash point instead of re-dying on
	// every send.
	if at, ok := fw.plan.Crash[nd.rank]; ok && fw.ops == at {
		return nil, &machine.CrashError{Rank: nd.rank, Op: fw.ops}
	}
	rDrop := fw.rng.Float64()
	rDup := fw.rng.Float64()
	rReorder := fw.rng.Float64()
	rCorrupt := fw.rng.Float64()
	rStall := fw.rng.Float64()
	rReset := fw.rng.Float64()

	if rStall < fw.plan.Stall && fw.budget() {
		d := fw.plan.StallDelay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	}

	var out []frameAction
	switch {
	case rDrop < fw.plan.Drop && fw.budget():
		nd.reportDrop(pkt, "chaos drop")
	case rReset < fw.plan.Reset && fw.budget():
		out = append(out, frameAction{to: to, frame: AppendFrame(nil, pkt), reset: true, pkt: pkt})
	default:
		frame := AppendFrame(nil, pkt)
		if rCorrupt < fw.plan.Corrupt && pkt.Kind == machine.PacketData && len(pkt.Data) > 0 && fw.budget() {
			// Flip one payload byte without fixing the trailer: the
			// receiver's checksum fails and the connection is dropped.
			idx := framePrefixLen + frameHeaderLen + fw.ops%(8*len(pkt.Data))
			frame[idx] ^= 0x81
		}
		out = append(out, frameAction{to: to, frame: frame, pkt: pkt})
		if rDup < fw.plan.Dup && fw.budget() {
			out = append(out, frameAction{to: to, frame: append([]byte(nil), frame...), pkt: pkt})
		}
	}
	if fw.held != nil {
		// Flush the held frame after the current one: the swap is the
		// reordering, and flushing on every send bounds the delay.
		out = append(out, frameAction{to: fw.held.to, frame: fw.held.frame, pkt: fw.held.pkt})
		fw.held = nil
	} else if len(out) == 1 && !out[0].reset && rReorder < fw.plan.Reorder && fw.budget() {
		fw.held = &heldFrame{to: out[0].to, frame: out[0].frame, pkt: out[0].pkt}
		out = nil
	}
	return out, nil
}

// budget consumes one fault from the per-rank allowance.
func (fw *faultWire) budget() bool {
	if fw.plan.MaxFaults > 0 && fw.faults >= fw.plan.MaxFaults {
		return false
	}
	fw.faults++
	return true
}
