package fault

import (
	"math"
	"sync"

	"repro/internal/machine"
)

// Inject wraps a rank's raw wire endpoint with the packet realization of
// d's verdicts; a nil d (a plan that injects nothing) leaves w as is.
// Faults fire on the delivery path (the sender's side of the wire), which
// keeps them deterministic: each rank's deliveries happen in its own
// program order. They also fire above the machine's wire meters, so a
// dropped packet is never metered and a duplicate is metered twice. Acks
// and retransmissions pass through the same injector as first
// transmissions — recovery traffic is not privileged.
//
// An injected wire violates the delivery guarantees the direct transport
// assumes; pair it with the reliable transport (see Transport) unless the
// plan is stall-only, the one fault class that preserves delivery.
func Inject(w machine.Wire, d *Decider) machine.Wire {
	if d == nil {
		return w
	}
	return &injector{Wire: w, d: d}
}

type injector struct {
	machine.Wire
	d    *Decider
	held *machine.Packet
}

func (i *injector) Deliver(pkt machine.Packet) {
	v := i.d.Next(pkt, i.held != nil)
	if v.Crash {
		panic(machine.CrashError{Rank: i.Rank(), Op: v.Op})
	}
	if v.Corrupt {
		// Flip one element's sign and low mantissa bit on a copy, leaving
		// the caller's buffer — which a reliable transport may retransmit —
		// intact.
		pkt.Data = append([]float64(nil), pkt.Data...)
		idx := v.Op % len(pkt.Data)
		pkt.Data[idx] = math.Float64frombits(math.Float64bits(pkt.Data[idx]) ^ 0x8000000000000001)
	}
	switch {
	case v.Drop, v.Reset:
		// The packet vanishes before reaching the wire. The simulated wire
		// has no connections to tear, so a reset is a drop here.
	case v.Hold:
		held := pkt
		i.held = &held
		return
	default:
		i.Wire.Deliver(pkt)
		if v.Dup {
			// The duplicate gets its own payload and must not carry the
			// Recycle mark: if both copies aliased one poolable buffer, the
			// receiver could recycle it after the first delivery and the
			// second would read reused memory.
			dup := pkt
			if len(pkt.Data) > 0 {
				dup.Data = append([]float64(nil), pkt.Data...)
			}
			dup.Recycle = false
			i.Wire.Deliver(dup)
		}
	}
	if held := i.held; held != nil {
		// Deliver the held packet after the current one: the swap is the
		// reordering.
		i.held = nil
		i.Wire.Deliver(*held)
	}
}

// Unreliable is a transport factory that runs the plain direct transport
// over an injected wire: faults hit the algorithm unrepaired. Useful for
// stall-only plans (delay never violates delivery, so results stay
// exact) and for demonstrating why the reliable transport exists.
func Unreliable(plan Plan) machine.TransportFactory {
	inject := perRank(plan)
	return func(w machine.Wire) machine.Transport {
		return machine.NewDirectTransport(inject(w))
	}
}

// perRank returns Inject bound to one Decider per rank, made at the
// rank's first wire and kept for the life of the transport factory that
// calls it. A recovering session's relaunched transports continue their
// rank's fault clock, so each rank's crash fires once per factory.
func perRank(plan Plan) func(machine.Wire) machine.Wire {
	var deciders sync.Map // rank → *Decider
	return func(w machine.Wire) machine.Wire {
		d, _ := deciders.LoadOrStore(w.Rank(), NewDecider(plan, w.Rank()))
		return Inject(w, d.(*Decider))
	}
}
