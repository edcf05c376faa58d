package sttsv

import (
	"io"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// This file re-exports the observability layer (internal/obs): structured
// phase-scoped trace events, the α-β-γ replay engine, and the trace /
// metrics exporters. A typical flow:
//
//	var rec sttsv.TraceRecorder
//	opts.Machine = sttsv.RunConfig{Observer: rec.Observer()}
//	res, _ := sttsv.ParallelCompute(a, x, opts)
//	tl, _ := sttsv.Replay(rec.Trace(), sttsv.DefaultTimeModel())
//
// See ExampleReplay for a complete run.

// Event is one structured trace event of a simulated run: a logical send
// or receive, a barrier passing, a phase marker, or a local-compute
// completion (plus raw wire datagrams when RunConfig.WireEvents is set).
type Event = machine.Event

// EventKind discriminates trace events.
type EventKind = machine.EventKind

// Event kinds (see machine.EventKind).
const (
	EventSend         = machine.EventSend
	EventRecv         = machine.EventRecv
	EventBarrier      = machine.EventBarrier
	EventPhaseBegin   = machine.EventPhaseBegin
	EventPhaseEnd     = machine.EventPhaseEnd
	EventLocalCompute = machine.EventLocalCompute
)

// RunConfig configures a simulated machine run: stall watchdog, trace
// observer, wire-event emission, transport factory and backend. Assign it
// to ParallelOptions.Machine.
type RunConfig = machine.RunConfig

// MachineReport carries a run's per-rank logical and wire communication
// meters.
type MachineReport = machine.Report

// TraceRecorder is a thread-safe collector of trace events; pass
// Observer() as RunConfig.Observer, then Trace() for analysis.
type TraceRecorder = obs.Recorder

// Trace is an ordered set of run events with phase/rank aggregation
// helpers and the trace-conformance check against a MachineReport.
type Trace = obs.Trace

// PhaseTotals aggregates one phase label's trace traffic (per-rank words,
// messages, ternary multiplications, and the step count read off the
// message tags).
type PhaseTotals = obs.PhaseTotals

// PhaseMeter is one labeled phase's per-rank meters in a ParallelResult:
// the run's traffic, compute and step count split by algorithm phase
// ("gather", "local", "reduce-scatter", …).
type PhaseMeter = parallel.PhaseMeter

// TimeModel is the α-β-γ cost model used to replay a trace on a
// simulated clock: per-message latency, per-word inverse bandwidth, and
// per-ternary-multiplication compute time (§3.1).
type TimeModel = obs.TimeModel

// DefaultTimeModel returns a plausible commodity-cluster operating point
// (2 µs latency, ≈6.4 GB/s bandwidth, 4·10⁹ ternary mults/s).
func DefaultTimeModel() TimeModel { return obs.DefaultTimeModel() }

// Timeline is a replayed trace: per-rank critical-path times, activity
// attribution (compute / send / recv-wait / barrier-wait / overlap),
// Gantt spans and per-phase step counts.
type Timeline = obs.Timeline

// Span is one interval of a rank's replayed timeline.
type Span = obs.Span

// Replay executes a complete logical trace on a simulated clock under
// the given α-β-γ model. For a fault-free point-to-point Algorithm 5 run
// each exchange phase replays to exactly the schedule's
// Σ(α + maxWords·β) makespan over its q³/2+3q²/2−1 steps.
func Replay(t *Trace, m TimeModel) (*Timeline, error) { return obs.Replay(t, m) }

// WriteChromeTrace writes a replayed timeline in the Chrome trace_event
// JSON format, loadable in chrome://tracing and Perfetto.
func WriteChromeTrace(w io.Writer, tl *Timeline) error { return obs.WriteChromeTrace(w, tl) }

// WriteTraceJSONL writes a trace as one JSON object per line; read back
// with ReadTraceJSONL (also the cmd/sttsvtrace interchange format).
func WriteTraceJSONL(w io.Writer, t *Trace) error { return obs.WriteTraceJSONL(w, t) }

// ReadTraceJSONL parses a JSONL trace written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) (*Trace, error) { return obs.ReadTraceJSONL(r) }

// WriteMetricsJSONL writes flat per-phase and per-rank metric records
// derived from a trace (and, when tl is non-nil, the replayed time
// attribution).
func WriteMetricsJSONL(w io.Writer, t *Trace, tl *Timeline) error {
	return obs.WriteMetricsJSONL(w, t, tl)
}

// WriteGantt renders an ASCII Gantt chart of a replayed timeline.
func WriteGantt(w io.Writer, tl *Timeline, width int) error { return obs.WriteGantt(w, tl, width) }
