package obs

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/machine"
)

// TimeModel is the α-β-γ cost model of §3.1 used to replay a logical
// trace on a simulated clock: a message of W words occupies its sender
// for Alpha + W·Beta seconds, a receiver proceeds once the message's
// transfer completes (sends and receives overlap on the bidirectional
// links of the model), and a local-compute stage of T ternary
// multiplications costs T·Gamma seconds. Nothing else synchronizes the
// ranks, so a phase replays to its dependency critical path, which never
// exceeds the stepwise Σ(α + maxWords·β) of §7.2 and equals it when every
// rank sends the same words in every step.
type TimeModel struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the per-word inverse bandwidth in seconds.
	Beta float64
	// Gamma is the per-ternary-multiplication compute time in seconds.
	Gamma float64
}

// DefaultTimeModel returns a plausible commodity-cluster operating point:
// 2 µs message latency, 1.25 ns/word (≈ 6.4 GB/s for float64 payloads),
// and 0.25 ns per ternary multiplication (≈ 4·10⁹ ternary/s).
func DefaultTimeModel() TimeModel {
	return TimeModel{Alpha: 2e-6, Beta: 1.25e-9, Gamma: 2.5e-10}
}

// SpanKind classifies a timeline span.
type SpanKind string

const (
	// SpanPhase brackets a whole algorithm phase on one rank.
	SpanPhase SpanKind = "phase"
	// SpanSend is the Alpha+W·Beta interval a message occupies its sender.
	SpanSend SpanKind = "send"
	// SpanCompute is a local-compute interval (Ternary·Gamma).
	SpanCompute SpanKind = "compute"
	// SpanRecvWait is time spent waiting for a message still in flight.
	SpanRecvWait SpanKind = "recv-wait"
)

// Span is one interval of a rank's replayed timeline (seconds).
type Span struct {
	Rank  int
	Kind  SpanKind
	Label string // phase label, or detail like "→3 tag 100 6w"
	Start float64
	End   float64
}

// Dur returns the span length in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Timeline is the result of replaying a logical trace under a TimeModel:
// per-rank simulated clocks with full activity attribution — the
// step-by-step Gantt data the cost model of §7.2.2 predicts.
type Timeline struct {
	P     int
	Model TimeModel
	// Finish is each rank's critical-path completion time (seconds).
	Finish []float64
	// Compute, SendTime, RecvWait attribute each rank's timeline;
	// Finish = Compute + SendTime + RecvWait for every rank (each
	// simulated second is exactly one of the three).
	Compute  []float64
	SendTime []float64
	RecvWait []float64
	// Overlap is the portion of each rank's received transfer time it did
	// not have to wait for — communication hidden behind the rank's own
	// sending/compute. Higher is better; RecvWait is its complement.
	Overlap []float64
	// Spans holds each rank's timeline intervals in time order
	// (phase spans first, then the fine-grained slices inside them).
	Spans [][]Span
	// PhaseSteps maps each phase label to its communication step count,
	// counted as in PhaseTotals.Steps: the distinct (phase occurrence,
	// tag) pairs of its logical sends (the §7.2 step count of a scheduled
	// phase).
	PhaseSteps map[string]int
	// PhaseOrder lists phase labels in first-appearance order.
	PhaseOrder []string
}

// Makespan returns the parallel completion time: max over ranks of
// Finish.
func (tl *Timeline) Makespan() float64 {
	m := 0.0
	for _, f := range tl.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// PhaseTime returns the maximum over ranks of the summed durations of the
// given phase's spans — the phase's contribution to the critical path
// (for repeated labels, e.g. one per power-method iteration, all
// occurrences are summed).
func (tl *Timeline) PhaseTime(label string) float64 {
	m := 0.0
	for r := 0; r < tl.P; r++ {
		s := 0.0
		for _, sp := range tl.Spans[r] {
			if sp.Kind == SpanPhase && sp.Label == label {
				s += sp.Dur()
			}
		}
		if s > m {
			m = s
		}
	}
	return m
}

// msgKey identifies a logical channel: messages with equal key are
// delivered in send order (the machine's ordering guarantee).
type msgKey struct{ from, to, tag int }

// transfer is one in-flight message's interval on the simulated clock.
type transfer struct{ start, finish float64 }

// Replay executes the logical events of t on a simulated clock under
// model m. The trace must be complete (every recv matched by a send) —
// the trace of any successful run is; a crashed or truncated trace yields
// an error naming the stuck ranks.
func Replay(t *Trace, m TimeModel) (*Timeline, error) {
	perRank := t.Logical().PerRank()
	p := t.P
	tl := &Timeline{
		P:          p,
		Model:      m,
		Finish:     make([]float64, p),
		Compute:    make([]float64, p),
		SendTime:   make([]float64, p),
		RecvWait:   make([]float64, p),
		Overlap:    make([]float64, p),
		Spans:      make([][]Span, p),
		PhaseSteps: make(map[string]int),
	}

	idx := make([]int, p)
	clock := make([]float64, p)
	inFlight := make(map[msgKey][]transfer)
	phaseStart := make([]float64, p)
	phaseSeen := make(map[string]bool)
	steps := newStepCounter()

	notePhase := func(label string) {
		if !phaseSeen[label] {
			phaseSeen[label] = true
			if label != "" {
				tl.PhaseOrder = append(tl.PhaseOrder, label)
			}
		}
	}

	// step processes rank r's next event; it returns false when the rank
	// is blocked on a recv whose send has not been replayed yet.
	step := func(r int) bool {
		e := perRank[r][idx[r]]
		switch e.Kind {
		case machine.EventSend:
			dt := m.Alpha + m.Beta*float64(e.Words)
			tl.Spans[r] = append(tl.Spans[r], Span{Rank: r, Kind: SpanSend,
				Label: fmt.Sprintf("→%d tag %d %dw", e.To, e.Tag, e.Words),
				Start: clock[r], End: clock[r] + dt})
			k := msgKey{e.From, e.To, e.Tag}
			inFlight[k] = append(inFlight[k], transfer{clock[r], clock[r] + dt})
			clock[r] += dt
			tl.SendTime[r] += dt

		case machine.EventRecv:
			k := msgKey{e.From, e.To, e.Tag}
			q := inFlight[k]
			if len(q) == 0 {
				return false // sender not replayed yet
			}
			tr := q[0]
			inFlight[k] = q[1:]
			wait := tr.finish - clock[r]
			xfer := tr.finish - tr.start
			if wait > 0 {
				tl.Spans[r] = append(tl.Spans[r], Span{Rank: r, Kind: SpanRecvWait,
					Label: fmt.Sprintf("←%d tag %d %dw", e.From, e.Tag, e.Words),
					Start: clock[r], End: tr.finish})
				tl.RecvWait[r] += wait
				if xfer > wait {
					tl.Overlap[r] += xfer - wait
				}
				clock[r] = tr.finish
			} else {
				tl.Overlap[r] += xfer
			}

		case machine.EventPhaseBegin:
			phaseStart[r] = clock[r]

		case machine.EventPhaseEnd:
			tl.Spans[r] = append(tl.Spans[r], Span{Rank: r, Kind: SpanPhase,
				Label: e.Phase, Start: phaseStart[r], End: clock[r]})

		case machine.EventLocalCompute:
			dt := m.Gamma * float64(e.Ternary)
			tl.Spans[r] = append(tl.Spans[r], Span{Rank: r, Kind: SpanCompute,
				Label: fmt.Sprintf("%d ternary", e.Ternary),
				Start: clock[r], End: clock[r] + dt})
			clock[r] += dt
			tl.Compute[r] += dt
		}
		notePhase(e.Phase)
		steps.note(e)
		idx[r]++
		return true
	}

	for {
		progressed := false
		remaining := false
		for r := 0; r < p; r++ {
			for idx[r] < len(perRank[r]) {
				if !step(r) {
					break
				}
				progressed = true
			}
			if idx[r] < len(perRank[r]) {
				remaining = true
			}
		}
		if !remaining {
			break
		}
		if !progressed {
			var stuck []string
			for r := 0; r < p; r++ {
				if idx[r] < len(perRank[r]) {
					e := perRank[r][idx[r]]
					stuck = append(stuck, fmt.Sprintf("rank %d at %s (seq %d)", r, e.Kind, e.Seq))
				}
			}
			return nil, fmt.Errorf("obs: replay stuck — incomplete trace? %s", strings.Join(stuck, "; "))
		}
	}

	copy(tl.Finish, clock)
	for label := range phaseSeen {
		tl.PhaseSteps[label] = steps.count(label)
	}
	// Phase spans were appended at EventPhaseEnd, after the slices inside
	// them; re-sort each rank's spans by (start, -end) so containers come
	// first — the order Chrome's trace viewer expects.
	for r := range tl.Spans {
		spans := tl.Spans[r]
		for i := 1; i < len(spans); i++ {
			for j := i; j > 0 && less(spans[j], spans[j-1]); j-- {
				spans[j], spans[j-1] = spans[j-1], spans[j]
			}
		}
	}
	return tl, nil
}

// less orders spans by start time, longer (containing) spans first on
// ties.
func less(a, b Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End > b.End
}

// WriteGantt renders an ASCII Gantt chart of the timeline: one row per
// rank, `width` columns spanning the makespan. Cell glyphs: '#' compute,
// 's' sending, '.' recv wait, ' ' outside any span.
func WriteGantt(w io.Writer, tl *Timeline, width int) error {
	if width < 10 {
		width = 10
	}
	span := tl.Makespan()
	if span <= 0 {
		span = 1
	}
	glyph := map[SpanKind]byte{SpanCompute: '#', SpanSend: 's', SpanRecvWait: '.'}
	for r := 0; r < tl.P; r++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range tl.Spans[r] {
			g, ok := glyph[sp.Kind]
			if !ok {
				continue
			}
			lo := int(math.Floor(sp.Start / span * float64(width)))
			hi := int(math.Ceil(sp.End / span * float64(width)))
			if hi > width {
				hi = width
			}
			if hi == lo && lo < width {
				hi = lo + 1
			}
			for i := lo; i < hi; i++ {
				row[i] = g
			}
		}
		if _, err := fmt.Fprintf(w, "%4d |%s| %8.3gs idle %.1f%%\n", r, row, tl.Finish[r],
			100*tl.RecvWait[r]/math.Max(tl.Finish[r], 1e-300)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "     makespan %.4gs   (#=compute s=send .=recv-wait)\n", tl.Makespan())
	return err
}
