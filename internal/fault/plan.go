// Package fault perturbs a machine's wire deterministically and repairs
// the damage: a per-rank Decider gives a seeded Plan (drop, duplication,
// reordering, corruption, stall, reset, crash) its meaning on every
// packet, Inject carries it out on the simulated wire (internal/netwire
// on sockets), and a reliable transport (sequence numbers,
// acknowledgements, bounded retransmission with exponential backoff,
// idempotent receive-side dedup and order restoration) under which every
// algorithm in this repository produces bit-identical results and
// identical logical communication meters under any benign fault schedule.
//
// The layer exists to harden the repo's central claim: the communication
// counts compared against the paper's lower bounds are metered at the
// logical Send/Recv level, while retransmissions, duplicates and acks are
// metered separately as wire overhead — so a fault schedule can stretch a
// run but can never change what the theory is checked against.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Plan is a deterministic, seedable fault schedule. Probabilities are
// evaluated per wire packet by a per-rank PRNG derived from Seed, so a
// given plan perturbs a given protocol the same way on every run.
type Plan struct {
	// Seed derives each rank's injector PRNG. Two plans with different
	// seeds fault different packets.
	Seed int64
	// Drop, Dup, Reorder, Corrupt, Stall are per-packet fault
	// probabilities in [0, 1].
	Drop, Dup, Reorder, Corrupt, Stall float64
	// Reset is the per-packet probability of a connection reset. On a
	// socket wire (internal/netwire) the frame is torn mid-write and the
	// connection closed, so the receiver drops the stream; on the
	// simulated wire, which has no connections, it degenerates to a drop.
	Reset float64
	// StallDelay is the bounded delay a stall fault imposes on the
	// sending rank (default 1ms).
	StallDelay time.Duration
	// Crash maps a rank to the wire-operation index (counting that
	// rank's Deliver calls from 1) at which it panics with
	// machine.CrashError.
	Crash map[int]int
	// MaxFaults caps injected faults per rank (crashes excluded);
	// 0 means unlimited. A finite cap guarantees a bounded-retry
	// reliable transport always converges.
	MaxFaults int
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Reorder > 0 || p.Corrupt > 0 ||
		p.Stall > 0 || p.Reset > 0 || len(p.Crash) > 0
}

// String renders the plan in the spec syntax ParsePlan accepts.
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("reorder", p.Reorder)
	add("corrupt", p.Corrupt)
	add("stall", p.Stall)
	add("reset", p.Reset)
	if p.StallDelay > 0 {
		parts = append(parts, fmt.Sprintf("stalldelay=%v", p.StallDelay))
	}
	ranks := make([]int, 0, len(p.Crash))
	for r := range p.Crash {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", r, p.Crash[r]))
	}
	if p.MaxFaults > 0 {
		parts = append(parts, fmt.Sprintf("maxfaults=%d", p.MaxFaults))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated fault-schedule spec, e.g.
//
//	seed=42,drop=0.1,dup=0.05,reorder=0.2,corrupt=0.02,stall=0.01,stalldelay=2ms,crash=3@40
//
// Keys: seed=<int>, drop/dup/reorder/corrupt/stall/reset=<prob in [0,1]>,
// stalldelay=<duration>, crash=<rank>@<op> (repeatable), maxfaults=<int>.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: field %q is not key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.Drop, err = parseProb(val)
		case "dup":
			p.Dup, err = parseProb(val)
		case "reorder":
			p.Reorder, err = parseProb(val)
		case "corrupt":
			p.Corrupt, err = parseProb(val)
		case "stall":
			p.Stall, err = parseProb(val)
		case "reset":
			p.Reset, err = parseProb(val)
		case "stalldelay":
			if p.StallDelay, err = time.ParseDuration(val); err == nil && p.StallDelay < 0 {
				err = fmt.Errorf("negative delay %v", p.StallDelay)
			}
		case "maxfaults":
			if p.MaxFaults, err = strconv.Atoi(val); err == nil && p.MaxFaults < 0 {
				err = fmt.Errorf("negative cap %d", p.MaxFaults)
			}
		case "crash":
			rs, os, ok := strings.Cut(val, "@")
			if !ok {
				return Plan{}, fmt.Errorf("fault: crash spec %q is not rank@op", val)
			}
			var rank, op int
			if rank, err = strconv.Atoi(rs); err == nil {
				op, err = strconv.Atoi(os)
			}
			if err == nil {
				if rank < 0 || op < 1 {
					return Plan{}, fmt.Errorf("fault: crash spec %q needs rank >= 0 and op >= 1", val)
				}
				if p.Crash == nil {
					p.Crash = make(map[int]int)
				}
				p.Crash[rank] = op
			}
		default:
			return Plan{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value for %s: %v", key, err)
		}
	}
	return p, nil
}

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("probability %g outside [0, 1]", v)
	}
	return v, nil
}
