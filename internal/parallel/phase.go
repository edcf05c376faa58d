package parallel

import "repro/internal/machine"

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
type phaseRecorder struct {
	p      int
	meters []*PhaseMeter
	index  map[string]int
}

func newPhaseRecorder(p int, labels ...string) *phaseRecorder {
	pr := &phaseRecorder{p: p, index: make(map[string]int, len(labels))}
	for _, label := range labels {
		if _, ok := pr.index[label]; ok {
			continue
		}
		pr.index[label] = len(pr.meters)
		pr.meters = append(pr.meters, &PhaseMeter{
			Label:     label,
			SentWords: make([]int64, p),
			RecvWords: make([]int64, p),
			SentMsgs:  make([]int64, p),
			RecvMsgs:  make([]int64, p),
			Ternary:   make([]int64, p),
		})
	}
	return pr
}

// meter returns the registered meter for label; it panics on an
// unregistered label (a driver bug, not a runtime condition).
func (pr *phaseRecorder) meter(label string) *PhaseMeter {
	return pr.meters[pr.index[label]]
}

// setSteps sets Steps on each scheduled exchange the recorder registered
// ("gather" and "reduce-scatter"); a CP step registers none.
func (pr *phaseRecorder) setSteps(steps int) {
	for _, label := range [...]string{"gather", "reduce-scatter"} {
		if i, ok := pr.index[label]; ok {
			pr.meters[i].Steps = steps
		}
	}
}

// comm runs body inside BeginPhase/EndPhase markers and attributes the
// rank's logical meter deltas to the label.
func (pr *phaseRecorder) comm(c *machine.Comm, label string, body func()) {
	m := pr.meter(label)
	r := c.Rank()
	m0 := c.Meters()
	c.BeginPhase(label)
	body()
	c.EndPhase()
	d := c.Meters().Sub(m0)
	m.SentWords[r] += d.SentWords
	m.RecvWords[r] += d.RecvWords
	m.SentMsgs[r] += d.SentMsgs
	m.RecvMsgs[r] += d.RecvMsgs
}

// local runs a compute stage returning its ternary count, emitting the
// phase markers and the LocalCompute trace event, and attributes the
// count to the label.
func (pr *phaseRecorder) local(c *machine.Comm, label string, body func() int64) {
	m := pr.meter(label)
	c.BeginPhase(label)
	t := body()
	c.LocalCompute(t)
	c.EndPhase()
	m.Ternary[c.Rank()] += t
}

// phaseSnap is one phase meter's counters at a checkpoint. The recovery
// supervisor snapshots the recorder at each dispatch boundary and rolls
// it back before a replay: ranks that completed phases of the aborted
// attempt already accumulated into the meters, and without the rollback
// the replay would double-count them.
type phaseSnap struct {
	sentW, recvW, sentM, recvM, tern []int64
}

// snapshotInto copies every registered meter's per-rank counters into
// the caller-pooled snaps/backing storage, growing it only when capacity
// is short (first checkpoint of each operation shape); at steady state
// the capture allocates nothing. The returned slices must be stored back
// by the caller — they may have been regrown.
func (pr *phaseRecorder) snapshotInto(snaps []phaseSnap, backing []int64) ([]phaseSnap, []int64) {
	need := len(pr.meters) * 5 * pr.p
	if cap(backing) < need {
		backing = make([]int64, need)
	}
	backing = backing[:need]
	if cap(snaps) < len(pr.meters) {
		snaps = make([]phaseSnap, len(pr.meters))
	}
	snaps = snaps[:len(pr.meters)]
	off := 0
	take := func() []int64 {
		sl := backing[off : off+pr.p : off+pr.p]
		off += pr.p
		return sl
	}
	for i, m := range pr.meters {
		sn := &snaps[i]
		sn.sentW, sn.recvW, sn.sentM, sn.recvM, sn.tern = take(), take(), take(), take(), take()
		copy(sn.sentW, m.SentWords)
		copy(sn.recvW, m.RecvWords)
		copy(sn.sentM, m.SentMsgs)
		copy(sn.recvM, m.RecvMsgs)
		copy(sn.tern, m.Ternary)
	}
	return snaps, backing
}

// restore overwrites the meters with a snapshot taken by the same
// recorder (label registration is fixed at construction, so index i in
// the snapshot is meter i).
func (pr *phaseRecorder) restore(snaps []phaseSnap) {
	for i, sn := range snaps {
		m := pr.meters[i]
		copy(m.SentWords, sn.sentW)
		copy(m.RecvWords, sn.recvW)
		copy(m.SentMsgs, sn.sentM)
		copy(m.RecvMsgs, sn.recvM)
		copy(m.Ternary, sn.tern)
	}
}

// results finalizes the meters in registration order.
func (pr *phaseRecorder) results() []PhaseMeter {
	out := make([]PhaseMeter, len(pr.meters))
	for i, m := range pr.meters {
		out[i] = *m
	}
	return out
}
