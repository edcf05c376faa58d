package parallel

import (
	"fmt"

	"repro/internal/machine"
)

// PhaseMeter carries one labeled phase's per-rank communication and
// compute meters, measured from the machine's logical counters (snapshot
// deltas around the phase body — an independent code path from the trace
// events, which is what makes the trace-conformance suite meaningful).
// Phases with the same label accumulate: a power-method run reports one
// "gather" meter summed over all iterations.
type PhaseMeter struct {
	// Label names the phase: "gather", "local", "reduce-scatter",
	// "all-gather", "all-reduce".
	Label string
	// SentWords, RecvWords, SentMsgs, RecvMsgs are per-rank logical
	// traffic attributable to the phase.
	SentWords []int64
	RecvWords []int64
	SentMsgs  []int64
	RecvMsgs  []int64
	// Ternary counts ternary multiplications per rank (compute phases).
	Ternary []int64
	// Steps is the phase's communication step count: the schedule length
	// for a scheduled exchange (q³/2+3q²/2−1 for the spherical family),
	// P−1 per All-to-All, 0 for compute phases.
	Steps int
}

// MaxSentWords returns the phase's critical-path sent words.
func (m *PhaseMeter) MaxSentWords() int64 {
	var max int64
	for _, w := range m.SentWords {
		if w > max {
			max = w
		}
	}
	return max
}

// TotalSentWords sums the phase's sent words over all ranks.
func (m *PhaseMeter) TotalSentWords() int64 {
	var sum int64
	for _, w := range m.SentWords {
		sum += w
	}
	return sum
}

// TotalTernary sums the phase's ternary multiplications over all ranks.
func (m *PhaseMeter) TotalTernary() int64 {
	var sum int64
	for _, t := range m.Ternary {
		sum += t
	}
	return sum
}

// phaseRecorder builds the []PhaseMeter of a Result. All labels are
// registered host-side before the run, so during the run each rank only
// reads the shared index map and writes its own slice slots — no locks.
// Ranks count into the running dispatch attempt's rows, never into the
// meters: commit folds a completed attempt in, and a failed attempt's
// rows are discarded once its machine is retired, so a replay counts
// its phases once.
type phaseRecorder struct {
	index  map[string]int
	meters phaseTable
	att    *phaseTable
}

// phaseTable is one PhaseMeter per label with every counter a view of
// one backing array, five rows of p per meter.
type phaseTable struct {
	rows []PhaseMeter
	back []int64
}

func newPhaseTable(p, n int) phaseTable {
	t := phaseTable{rows: make([]PhaseMeter, n), back: make([]int64, 5*p*n)}
	for i := range t.rows {
		c := t.back[5*p*i:]
		t.rows[i] = PhaseMeter{
			SentWords: c[0:p:p],
			RecvWords: c[p : 2*p : 2*p],
			SentMsgs:  c[2*p : 3*p : 3*p],
			RecvMsgs:  c[3*p : 4*p : 4*p],
			Ternary:   c[4*p : 5*p : 5*p],
		}
	}
	return t
}

// newPhaseRecorder registers labels, a repeated one once. att lends the
// attempt rows, at least one per label and all zero; nil allocates them.
func newPhaseRecorder(p int, att *phaseTable, labels ...string) *phaseRecorder {
	pr := &phaseRecorder{index: make(map[string]int, len(labels))}
	for _, label := range labels {
		if _, ok := pr.index[label]; !ok {
			pr.index[label] = len(pr.index)
		}
	}
	pr.meters = newPhaseTable(p, len(pr.index))
	for label, i := range pr.index {
		pr.meters.rows[i].Label = label
	}
	if att == nil {
		t := newPhaseTable(p, len(pr.index))
		att = &t
	}
	pr.att = att
	return pr
}

// meter returns the registered meter for label.
func (pr *phaseRecorder) meter(label string) *PhaseMeter {
	return &pr.meters.rows[pr.row(label)]
}

// row returns label's row; it panics on an unregistered label (a driver
// bug, not a runtime condition) before anything is metered.
func (pr *phaseRecorder) row(label string) int {
	i, ok := pr.index[label]
	if !ok {
		panic(fmt.Sprintf("parallel: phase label %q is not registered", label))
	}
	return i
}

// setSteps sets Steps on each scheduled exchange the recorder registered
// ("gather" and "reduce-scatter"); a CP step registers none.
func (pr *phaseRecorder) setSteps(steps int) {
	for _, label := range [...]string{"gather", "reduce-scatter"} {
		if i, ok := pr.index[label]; ok {
			pr.meters.rows[i].Steps = steps
		}
	}
}

// comm runs body inside BeginPhase/EndPhase markers and attributes the
// rank's logical meter deltas to the label.
func (pr *phaseRecorder) comm(c *machine.Comm, label string, body func()) {
	a := &pr.att.rows[pr.row(label)]
	r := c.Rank()
	m0 := c.Meters()
	c.BeginPhase(label)
	body()
	c.EndPhase()
	d := c.Meters().Sub(m0)
	a.SentWords[r] += d.SentWords
	a.RecvWords[r] += d.RecvWords
	a.SentMsgs[r] += d.SentMsgs
	a.RecvMsgs[r] += d.RecvMsgs
}

// local runs a compute stage returning its ternary count, emitting the
// phase markers and the LocalCompute trace event, and attributes the
// count to the label.
func (pr *phaseRecorder) local(c *machine.Comm, label string, body func() int64) {
	a := &pr.att.rows[pr.row(label)]
	c.BeginPhase(label)
	t := body()
	c.LocalCompute(t)
	c.EndPhase()
	a.Ternary[c.Rank()] += t
}

// commit folds a completed attempt's rows into the meters and clears
// them for the next attempt.
func (pr *phaseRecorder) commit() {
	for i, v := range pr.att.back[:len(pr.meters.back)] {
		pr.meters.back[i] += v
	}
	pr.discard()
}

// discard clears the attempt rows. After a failed attempt it may run
// only once no rank of the attempt's machine can still write them.
func (pr *phaseRecorder) discard() { clear(pr.att.back) }
