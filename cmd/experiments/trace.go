package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/obs"
)

// traceCmd summarizes, converts and gates a trace recorded by sttsvrun
// -events (one JSON event per line). It replays the logical event stream
// under a configurable α-β-γ time model, can emit the Chrome trace_event
// JSON understood by chrome://tracing and Perfetto, and can fail when the
// run's measured wall-clock makespan exceeds a factor of the replayed one.
//
//	trace run.jsonl                 # phase/rank summary
//	trace -timeline run.jsonl       # per-rank replay attribution
//	trace -gantt run.jsonl          # ASCII Gantt chart
//	trace -chrome out.json run.jsonl
//	trace -metrics out.jsonl run.jsonl
//	trace -alpha 5e-6 -beta 2e-9 -gamma 0 -timeline run.jsonl
//	trace -alpha 5e-3 -gate-makespan 3 run.jsonl
//
// A bad flag, a missing trace argument or an unreadable trace file exits
// 2; a trace that does not parse or replay, or a failed gate, exits 1 and
// prints nothing to stdout.
func traceCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trace", stderr)
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this file")
	metrics := fs.String("metrics", "", "write flat metrics JSONL to this file")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart of the replayed timeline")
	timeline := fs.Bool("timeline", false, "print per-rank replay time attribution")
	width := fs.Int("width", 72, "Gantt chart width in columns")
	def := obs.DefaultTimeModel()
	alpha := fs.Float64("alpha", def.Alpha, "per-message latency (seconds)")
	beta := fs.Float64("beta", def.Beta, "per-word transfer time (seconds)")
	gamma := fs.Float64("gamma", def.Gamma, "per-ternary-multiplication compute time (seconds)")
	gate := fs.Float64("gate-makespan", 0, "fail unless the measured wall-clock makespan stays within this factor of the replayed one (0 disables)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() != 1 || !(*gate >= 0) {
		fmt.Fprintln(stderr, "usage: experiments trace [flags] trace.jsonl (-gate-makespan ≥ 0)")
		fs.PrintDefaults()
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "trace:", err)
		return code
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(2, err)
	}
	tr, err := obs.ReadTraceJSONL(f)
	f.Close()
	if err != nil {
		return fail(1, err)
	}
	model := obs.TimeModel{Alpha: *alpha, Beta: *beta, Gamma: *gamma}
	tl, err := obs.Replay(tr, model)
	if err != nil {
		return fail(1, fmt.Errorf("replay: %w", err))
	}
	if measured, replayed := tr.WallSpan(), tl.Makespan(); *gate > 0 && !(measured > 0 && measured <= *gate*replayed) {
		if measured == 0 {
			return fail(1, errors.New("-gate-makespan: the trace has no wall-clock stamps"))
		}
		return fail(1, fmt.Errorf("measured makespan %.4gs exceeds %.3g× the α-β-γ replay %.4gs", measured, *gate, replayed))
	}
	summarize(stdout, tr, tl, model)
	if *timeline {
		printTimeline(stdout, tl)
	}
	if *gantt {
		if err := obs.WriteGantt(stdout, tl, *width); err != nil {
			return fail(1, err)
		}
	}
	if *chrome != "" {
		if err := writeTo(stdout, *chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, tl) }); err != nil {
			return fail(1, err)
		}
	}
	if *metrics != "" {
		if err := writeTo(stdout, *metrics, func(w io.Writer) error { return obs.WriteMetricsJSONL(w, tr, tl) }); err != nil {
			return fail(1, err)
		}
	}
	return 0
}

// summarize prints the phase table: traffic, steps and replayed time.
func summarize(w io.Writer, tr *obs.Trace, tl *obs.Timeline, model obs.TimeModel) {
	fmt.Fprintf(w, "trace: %d events, %d ranks; model α=%.3g β=%.3g γ=%.3g\n",
		len(tr.Events), tr.P, model.Alpha, model.Beta, model.Gamma)
	totals, order := tr.PhaseTotals()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| phase | steps | max sent w | total sent w | max msgs | ternary | replay time |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, label := range order {
		pt := totals[label]
		var maxW, totW, maxM, tern int64
		for r := 0; r < tr.P; r++ {
			maxW = max(maxW, pt.SentWords[r])
			maxM = max(maxM, pt.SentMsgs[r])
			totW += pt.SentWords[r]
			tern += pt.Ternary[r]
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %.4gs |\n",
			label, pt.Steps, maxW, totW, maxM, tern, tl.PhaseTime(label))
	}
	replayed := tl.Makespan()
	fmt.Fprintf(w, "\nmakespan %.4gs over %d ranks", replayed, tl.P)
	if measured := tr.WallSpan(); measured > 0 {
		fmt.Fprintf(w, "; measured %.4gs", measured)
		if replayed > 0 {
			fmt.Fprintf(w, " (×%.2f)", measured/replayed)
		}
	}
	fmt.Fprintln(w)
}

// printTimeline prints the per-rank critical-path attribution.
func printTimeline(w io.Writer, tl *obs.Timeline) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| rank | finish | compute | send | recv-wait | overlap | idle |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for r := 0; r < tl.P; r++ {
		fmt.Fprintf(w, "| %d | %.4g | %.4g | %.4g | %.4g | %.4g | %.1f%% |\n",
			r, tl.Finish[r], tl.Compute[r], tl.SendTime[r], tl.RecvWait[r],
			tl.Overlap[r], 100*tl.RecvWait[r]/math.Max(tl.Makespan(), 1e-300))
	}
}

// writeTo writes one output file and reports it on stdout.
func writeTo(stdout io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintln(stdout, "wrote", path)
	}
	return err
}
