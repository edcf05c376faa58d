// Package obs is the observability layer over the simulated α-β-γ
// machine: it collects the structured trace events that machine.Comm,
// package collective, and package parallel emit (phase markers, logical
// and wire send/recv, local-compute completions, recovery markers),
// aggregates them into phase-scoped meters, replays them under a
// configurable α-β-γ time model into a per-rank timeline (critical path,
// Gantt spans, idle/overlap attribution), and exports both raw traces and
// derived metrics — Chrome trace_event JSON for chrome://tracing /
// Perfetto, and flat JSONL for ad-hoc tooling.
//
// The layer closes the loop between the closed-form cost model
// (internal/costmodel, internal/schedule) and measured runs: a trace of a
// fault-free point-to-point Algorithm 5 run counts exactly the schedule's
// q³/2+3q²/2−1 steps per phase (one message tag per step) and replays to
// the Σ(α + β·maxWords) makespan of schedule.Makespan at the block sizes
// where every rank sends equal words in every step, and its logical event
// sums reproduce the machine.Report meters bit-for-bit — per rank and per
// phase — even when a fault plan perturbs the wire underneath (the
// logical-vs-wire invariant of the fault layer).
package obs

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/machine"
)

// Recorder is a thread-safe trace-event collector: pass Observer() as
// machine.RunConfig.Observer. The zero value is ready to use and may be
// reused across runs (events accumulate; call Reset between runs to
// separate them).
type Recorder struct {
	mu     sync.Mutex
	events []machine.Event
}

// Observer returns the callback to install as RunConfig.Observer.
func (r *Recorder) Observer() func(machine.Event) {
	return func(e machine.Event) {
		r.mu.Lock()
		r.events = append(r.events, e)
		r.mu.Unlock()
	}
}

// Reset discards every collected event.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// Trace returns the collected events as an analyzable Trace. Events are
// sorted into the canonical order (rank, then per-rank sequence number),
// which is deterministic for a deterministic rank program even though the
// raw collection interleaving across ranks is not.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	events := append([]machine.Event(nil), r.events...)
	r.mu.Unlock()
	return NewTrace(events)
}

// Trace is an ordered set of structured run events with aggregation
// helpers. Build one with Recorder.Trace, NewTrace, or ReadTraceJSONL.
type Trace struct {
	// Events holds every event in canonical (Rank, Seq) order.
	Events []machine.Event
	// P is the number of ranks that appear in the trace.
	P int
}

// NewTrace canonicalizes a raw event slice into a Trace.
func NewTrace(events []machine.Event) *Trace {
	cp := append([]machine.Event(nil), events...)
	sort.SliceStable(cp, func(i, j int) bool {
		if cp[i].Rank != cp[j].Rank {
			return cp[i].Rank < cp[j].Rank
		}
		return cp[i].Seq < cp[j].Seq
	})
	p := 0
	for _, e := range cp {
		if e.Rank+1 > p {
			p = e.Rank + 1
		}
	}
	return &Trace{Events: cp, P: p}
}

// PerRank splits the trace into per-rank event sequences (index = rank),
// each in emission order.
func (t *Trace) PerRank() [][]machine.Event {
	out := make([][]machine.Event, t.P)
	for _, e := range t.Events {
		out[e.Rank] = append(out[e.Rank], e)
	}
	return out
}

// WallSpan returns the measured wall-clock makespan of the traced run in
// seconds: the largest Event.Wall stamp, i.e. elapsed time from machine
// start to the last emitted event. Zero for traces without wall stamps
// (read back from JSONL written before the stamps existed). Compare it
// against Timeline.Makespan() to see how far reality is from the α-β-γ
// prediction on the backend the run used.
func (t *Trace) WallSpan() float64 {
	var max int64
	for _, e := range t.Events {
		if e.Wall > max {
			max = e.Wall
		}
	}
	return float64(max) / 1e9
}

// Logical returns the trace restricted to logical events (Wire == false).
func (t *Trace) Logical() *Trace {
	var out []machine.Event
	for _, e := range t.Events {
		if !e.Wire {
			out = append(out, e)
		}
	}
	return &Trace{Events: out, P: t.P}
}

// PhaseTotals aggregates one phase label's traffic across the whole
// trace: per-rank logical words/messages sent and received, communication
// step count, and ternary multiplications. The same shape is produced for
// wire events by WireTotals.
type PhaseTotals struct {
	Label     string
	SentWords []int64
	RecvWords []int64
	SentMsgs  []int64
	RecvMsgs  []int64
	Ternary   []int64
	// Steps counts the phase's communication steps as its distinct
	// (phase occurrence, tag) pairs over the logical sends (see
	// stepCounter): the §7.2 step count for a scheduled phase, summed over
	// its occurrences, and 0 for a compute phase. Always 0 for wire totals.
	Steps int
}

// stepCounter counts communication steps from the logical sends. Each
// step of a scheduled exchange sends under its own tag, and each
// occurrence of a phase — one per power iteration — opens with its own
// PhaseBegin, so a step is a distinct (phase occurrence, tag) pair. Each
// rank's events must be noted in emission order; ranks may interleave.
type stepCounter struct {
	occ   map[rankPhase]int
	steps map[string]map[[2]int]bool // label -> {occurrence, tag}
}

type rankPhase struct {
	rank  int
	label string
}

func newStepCounter() *stepCounter {
	return &stepCounter{occ: make(map[rankPhase]int), steps: make(map[string]map[[2]int]bool)}
}

func (sc *stepCounter) note(e machine.Event) {
	if e.Wire {
		return
	}
	switch e.Kind {
	case machine.EventPhaseBegin:
		sc.occ[rankPhase{e.Rank, e.Phase}]++
	case machine.EventSend:
		set := sc.steps[e.Phase]
		if set == nil {
			set = make(map[[2]int]bool)
			sc.steps[e.Phase] = set
		}
		set[[2]int{sc.occ[rankPhase{e.Rank, e.Phase}], e.Tag}] = true
	}
}

// count returns the step count of one phase label.
func (sc *stepCounter) count(label string) int { return len(sc.steps[label]) }

// total returns the step count summed over every phase label.
func (sc *stepCounter) total() int {
	n := 0
	for _, set := range sc.steps {
		n += len(set)
	}
	return n
}

// newPhaseTotals allocates zeroed per-rank slices.
func newPhaseTotals(label string, p int) *PhaseTotals {
	return &PhaseTotals{
		Label:     label,
		SentWords: make([]int64, p),
		RecvWords: make([]int64, p),
		SentMsgs:  make([]int64, p),
		RecvMsgs:  make([]int64, p),
		Ternary:   make([]int64, p),
	}
}

// accumulate folds one event into the totals.
func (pt *PhaseTotals) accumulate(e machine.Event) {
	switch e.Kind {
	case machine.EventSend:
		pt.SentWords[e.Rank] += int64(e.Words)
		pt.SentMsgs[e.Rank]++
	case machine.EventRecv:
		pt.RecvWords[e.Rank] += int64(e.Words)
		pt.RecvMsgs[e.Rank]++
	case machine.EventLocalCompute:
		pt.Ternary[e.Rank] += e.Ternary
	}
}

// totalsOf aggregates events passing the filter, grouped by phase label.
func (t *Trace) totalsOf(wire bool) (map[string]*PhaseTotals, []string) {
	totals := make(map[string]*PhaseTotals)
	steps := newStepCounter()
	var order []string
	for _, e := range t.Events {
		if e.Wire != wire {
			continue
		}
		pt, ok := totals[e.Phase]
		if !ok {
			pt = newPhaseTotals(e.Phase, t.P)
			totals[e.Phase] = pt
			order = append(order, e.Phase)
		}
		pt.accumulate(e)
		steps.note(e)
	}
	for label, pt := range totals {
		pt.Steps = steps.count(label)
	}
	return totals, order
}

// PhaseTotals aggregates the logical events by phase label (the label ""
// collects events outside any phase). The second return value lists the
// labels in first-appearance order.
func (t *Trace) PhaseTotals() (map[string]*PhaseTotals, []string) {
	return t.totalsOf(false)
}

// WireTotals aggregates the wire events by phase label; empty unless the
// run was configured with RunConfig.WireEvents.
func (t *Trace) WireTotals() (map[string]*PhaseTotals, []string) {
	return t.totalsOf(true)
}

// RankTotals sums the logical trace per rank across all phases, in the
// shape of a machine.Report's logical meters.
func (t *Trace) RankTotals() *PhaseTotals {
	out := newPhaseTotals("", t.P)
	steps := newStepCounter()
	for _, e := range t.Events {
		if e.Wire {
			continue
		}
		out.accumulate(e)
		steps.note(e)
	}
	out.Steps = steps.total()
	return out
}

// RecoveryCounts summarizes the recovery markers a supervised session
// left in the trace: rank deaths, recovery spans (one per machine
// relaunch), completed rollbacks, restore
// fingerprint verifications and mismatches, and the highest wire epoch
// reached.
type RecoveryCounts struct {
	RankDowns  int
	Recoveries int // EventRecoveryBegin markers
	// Rollbacks counts completed checkpoint restorations. The supervisor
	// emits one EventRecoveryEnd marker per rank per restore (each
	// carrying that rank's committed-event boundary), so only rank 0's
	// markers are counted here.
	Rollbacks     int
	Verifications int // EventRestoreVerify markers
	Mismatches    int // EventRestoreMismatch markers
	MaxEpoch      int64
}

// RecoveryCounts scans the trace for recovery markers. All-zero for a
// crash-free run.
func (t *Trace) RecoveryCounts() RecoveryCounts {
	var rc RecoveryCounts
	for _, e := range t.Events {
		switch e.Kind {
		case machine.EventRankDown:
			rc.RankDowns++
		case machine.EventRecoveryBegin:
			rc.Recoveries++
		case machine.EventRecoveryEnd:
			if e.Rank == 0 {
				rc.Rollbacks++
			}
		case machine.EventRestoreVerify:
			rc.Verifications++
		case machine.EventRestoreMismatch:
			rc.Mismatches++
		}
		if e.Epoch > rc.MaxEpoch {
			rc.MaxEpoch = e.Epoch
		}
	}
	return rc
}

// CommittedTotals sums the logical trace per rank counting committed work
// exactly once: events a crash recovery rolled back are excluded. The
// supervisor marks each rollback with a per-rank EventRecoveryEnd whose
// Step field carries the rank's event sequence at the restored
// checkpoint; every logical event the rank emitted at or after that
// sequence belongs to an aborted attempt and is dropped. The filter is
// idempotent across retries of the same dispatch (each retry's marker
// re-drops from the same checkpoint boundary), and on a crash-free trace
// it degenerates to RankTotals.
func (t *Trace) CommittedTotals() *PhaseTotals {
	out := newPhaseTotals("", t.P)
	steps := newStepCounter()
	for _, evs := range t.PerRank() {
		kept := make([]machine.Event, 0, len(evs))
		for _, e := range evs {
			if e.Kind == machine.EventRecoveryEnd && e.Step >= 0 {
				ckSeq := int64(e.Step)
				for len(kept) > 0 && kept[len(kept)-1].Seq >= ckSeq {
					kept = kept[:len(kept)-1]
				}
				continue
			}
			kept = append(kept, e)
		}
		for _, e := range kept {
			if !e.Wire {
				out.accumulate(e)
				steps.note(e)
			}
		}
	}
	out.Steps = steps.total()
	return out
}

// CheckAgainstReport verifies the trace-conformance invariant: the
// committed logical events (CommittedTotals: every logical event of a
// crash-free trace, and those no rollback superseded otherwise) equal
// the report's logical meters exactly, per rank. A mismatch means the
// event stream and the counters disagree about the run — the one thing
// an observability layer must never do.
func (t *Trace) CheckAgainstReport(rep *machine.Report) error {
	tot := t.CommittedTotals()
	if t.P > rep.P {
		return fmt.Errorf("obs: trace has %d ranks, report %d", t.P, rep.P)
	}
	for r := 0; r < rep.P; r++ {
		var sw, rw, sm, rm int64
		if r < t.P {
			sw, rw, sm, rm = tot.SentWords[r], tot.RecvWords[r], tot.SentMsgs[r], tot.RecvMsgs[r]
		}
		if sw != rep.SentWords[r] || sm != rep.SentMsgs[r] {
			return fmt.Errorf("obs: rank %d sent %dw/%dm in trace, %dw/%dm in report",
				r, sw, sm, rep.SentWords[r], rep.SentMsgs[r])
		}
		if rw != rep.RecvWords[r] || rm != rep.RecvMsgs[r] {
			return fmt.Errorf("obs: rank %d recv %dw/%dm in trace, %dw/%dm in report",
				r, rw, rm, rep.RecvWords[r], rep.RecvMsgs[r])
		}
	}
	return nil
}
