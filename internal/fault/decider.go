package fault

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/machine"
)

// Decider is the per-packet meaning of a Plan for one rank: it makes
// every fault decision, and a realization — the simulated injector
// (Inject) on packets, the socket chaos layer (internal/netwire) on
// framed bytes — only carries out the Verdict Next returns. Each packet
// takes six draws, made up front from the rank's PRNG seeded by (Seed,
// rank), so the stream advances the same way whichever faults fire. The
// crash clock passes each packet count once, so the rank's crash fires
// at most once in the decider's lifetime; a realization that outlives a
// machine incarnation keeps its decider, so a relaunched rank does not
// crash again.
type Decider struct {
	plan    Plan
	crashAt int // 0: no crash scheduled

	mu     sync.Mutex
	rng    *rand.Rand
	ops    int // packets decided so far (crash clock)
	faults int // injected faults so far (MaxFaults budget)
}

// Verdict is the fate of one outbound packet, whose index in the rank's
// send order, from 1, is Op. Crash (the rank dies with
// machine.CrashError{Rank, Op} instead of sending it), Drop (it is lost)
// and Reset (its connection is torn mid-packet, and it is lost with it)
// exclude one another. Corrupt (its payload bits are damaged) and Dup (it
// is sent twice) come only with a packet that is sent, and Hold (it is
// sent after the next packet's own sends, which reorders the two) only
// with one that is sent once.
type Verdict struct {
	Op                                     int
	Crash, Drop, Reset, Corrupt, Dup, Hold bool
}

// NewDecider returns rank's decider for plan, or nil when the plan
// injects nothing.
func NewDecider(plan Plan, rank int) *Decider {
	if !plan.Active() {
		return nil
	}
	if plan.StallDelay <= 0 {
		plan.StallDelay = time.Millisecond
	}
	return &Decider{
		plan:    plan,
		crashAt: plan.Crash[rank],
		rng:     rand.New(rand.NewSource(plan.Seed ^ (0x9e3779b97f4a7c * int64(rank+1)))),
	}
}

// Next decides the fate of pkt, the rank's next outbound packet, and
// sleeps StallDelay first when the packet draws a stall. holding says
// whether the caller still holds a packet from an earlier Hold: the
// caller must send that one after this one's sends, and Next then never
// holds this one, so a held packet waits for exactly one more packet.
func (d *Decider) Next(pkt machine.Packet, holding bool) Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops++
	if d.ops == d.crashAt {
		return Verdict{Op: d.ops, Crash: true}
	}
	v := Verdict{Op: d.ops}
	rDrop := d.rng.Float64()
	rDup := d.rng.Float64()
	rReorder := d.rng.Float64()
	rCorrupt := d.rng.Float64()
	rStall := d.rng.Float64()
	rReset := d.rng.Float64()

	if rStall < d.plan.Stall && d.budget() {
		time.Sleep(d.plan.StallDelay)
	}
	switch {
	case rDrop < d.plan.Drop && d.budget():
		v.Drop = true
	case rReset < d.plan.Reset && d.budget():
		v.Reset = true
	default:
		v.Corrupt = rCorrupt < d.plan.Corrupt && pkt.Kind == machine.PacketData && len(pkt.Data) > 0 && d.budget()
		v.Dup = rDup < d.plan.Dup && d.budget()
	}
	v.Hold = !holding && !v.Drop && !v.Reset && !v.Dup && rReorder < d.plan.Reorder && d.budget()
	return v
}

// budget consumes one fault from the per-rank allowance.
func (d *Decider) budget() bool {
	if d.plan.MaxFaults > 0 && d.faults >= d.plan.MaxFaults {
		return false
	}
	d.faults++
	return true
}
