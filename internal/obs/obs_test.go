package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// runPipeline is a tiny deterministic phased program: rank 0 sends r
// words to each other rank r inside phase "spread", then each rank
// reports a local-compute stage inside phase "work".
func runPipeline(t *testing.T, p int) (*Trace, *machine.Report) {
	t.Helper()
	var rec Recorder
	rep, err := machine.RunWith(p, machine.RunConfig{
		Timeout:  5 * time.Second,
		Observer: rec.Observer(),
	}, func(c *machine.Comm) {
		c.BeginPhase("spread")
		if c.Rank() == 0 {
			for to := 1; to < p; to++ {
				c.Send(to, 7, make([]float64, to))
			}
		} else {
			c.Recv(0, 7)
		}
		c.EndPhase()
		c.BeginPhase("work")
		c.LocalCompute(int64(100 * (c.Rank() + 1)))
		c.EndPhase()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), rep
}

func TestTraceCanonicalOrderAndPhaseTotals(t *testing.T) {
	const p = 4
	tr, rep := runPipeline(t, p)

	// Canonical order: per-rank Seq strictly increasing from 0.
	for r, evs := range tr.PerRank() {
		for i, e := range evs {
			if e.Seq != int64(i) {
				t.Fatalf("rank %d event %d has seq %d", r, i, e.Seq)
			}
		}
	}
	if err := tr.CheckAgainstReport(rep); err != nil {
		t.Fatal(err)
	}

	totals, order := tr.PhaseTotals()
	if len(order) != 2 || order[0] != "spread" || order[1] != "work" {
		t.Fatalf("phase order = %v", order)
	}
	spread := totals["spread"]
	wantSent := int64(0)
	for to := 1; to < p; to++ {
		wantSent += int64(to)
	}
	if spread.SentWords[0] != wantSent || spread.SentMsgs[0] != int64(p-1) {
		t.Errorf("spread rank 0 sent %dw/%dm, want %dw/%dm",
			spread.SentWords[0], spread.SentMsgs[0], wantSent, p-1)
	}
	for r := 1; r < p; r++ {
		if spread.RecvWords[r] != int64(r) || spread.RecvMsgs[r] != 1 {
			t.Errorf("spread rank %d recv %dw/%dm", r, spread.RecvWords[r], spread.RecvMsgs[r])
		}
	}
	if spread.Steps != 1 {
		t.Errorf("spread steps = %d, want 1", spread.Steps)
	}
	work := totals["work"]
	for r := 0; r < p; r++ {
		if work.Ternary[r] != int64(100*(r+1)) {
			t.Errorf("work rank %d ternary = %d", r, work.Ternary[r])
		}
	}
	// A compute phase sends nothing, so it counts no steps (as
	// PhaseMeter.Steps defines compute phases).
	if work.Steps != 0 {
		t.Errorf("work steps = %d, want 0", work.Steps)
	}
}

func TestReplayAnalytic(t *testing.T) {
	// Two ranks, one 4-word message 0→1: every clock is computable by
	// hand under α=1, β=0.5, γ=0.
	var rec Recorder
	_, err := machine.RunWith(2, machine.RunConfig{
		Timeout: 5 * time.Second, Observer: rec.Observer(),
	}, func(c *machine.Comm) {
		c.BeginPhase("p")
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 4))
		} else {
			c.Recv(0, 0)
		}
		c.EndPhase()
	})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Replay(rec.Trace(), TimeModel{Alpha: 1, Beta: 0.5, Gamma: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Send occupies rank 0 for 1 + 4·0.5 = 3; rank 1 waits 3 for it, so
	// both finish at 3.
	for r, want := range []float64{3, 3} {
		if math.Abs(tl.Finish[r]-want) > 1e-12 {
			t.Errorf("finish[%d] = %g, want %g", r, tl.Finish[r], want)
		}
	}
	if math.Abs(tl.SendTime[0]-3) > 1e-12 || tl.RecvWait[0] != 0 {
		t.Errorf("rank 0 attribution: send %g recvWait %g", tl.SendTime[0], tl.RecvWait[0])
	}
	if math.Abs(tl.RecvWait[1]-3) > 1e-12 {
		t.Errorf("rank 1 recvWait = %g, want 3", tl.RecvWait[1])
	}
	if tl.PhaseSteps["p"] != 1 {
		t.Errorf("phase steps = %v", tl.PhaseSteps)
	}
	if math.Abs(tl.Makespan()-3) > 1e-12 {
		t.Errorf("makespan = %g", tl.Makespan())
	}
	if math.Abs(tl.PhaseTime("p")-3) > 1e-12 {
		t.Errorf("PhaseTime(p) = %g", tl.PhaseTime("p"))
	}
}

func TestReplayAttributionInvariant(t *testing.T) {
	// Every simulated second is exactly one of compute/send/recv-wait:
	// the three must sum to each rank's finish time.
	tr, _ := runPipeline(t, 5)
	tl, err := Replay(tr, DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tl.P; r++ {
		sum := tl.Compute[r] + tl.SendTime[r] + tl.RecvWait[r]
		if math.Abs(sum-tl.Finish[r]) > 1e-12*math.Max(1, tl.Finish[r]) {
			t.Errorf("rank %d: attribution sum %g != finish %g", r, sum, tl.Finish[r])
		}
	}
}

func TestReplayStuckOnTruncatedTrace(t *testing.T) {
	tr, _ := runPipeline(t, 3)
	// Drop every send: the first recv can never complete.
	var cut []machine.Event
	for _, e := range tr.Events {
		if e.Kind != machine.EventSend {
			cut = append(cut, e)
		}
	}
	_, err := Replay(NewTrace(cut), DefaultTimeModel())
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("err = %v, want replay-stuck diagnosis", err)
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr, _ := runPipeline(t, 3)
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) || back.P != tr.P {
		t.Fatalf("round trip: %d events P=%d, want %d events P=%d",
			len(back.Events), back.P, len(tr.Events), tr.P)
	}
	for i, e := range tr.Events {
		if back.Events[i] != e {
			t.Fatalf("event %d: %+v != %+v", i, back.Events[i], e)
		}
	}
}

// FuzzReadTraceJSONL checks that every trace ReadTraceJSONL accepts
// writes back through WriteTraceJSONL to a trace that reads as the same
// events, tags and step fields included: the tags carry a phase's step
// count.
func FuzzReadTraceJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, NewTrace(fixtureEvents())); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, in := range []string{
		`{"kind":"send","rank":1,"from":1,"to":0,"tag":101,"words":6,"phase":"gather","seq":3}`,
		`{"kind":"restore-mismatch","rank":0,"from":0,"to":0,"seq":0,"step":1}` + "\n" + `{"kind":"recovery-end","rank":0,"seq":1,"step":-4}`,
		`{"kind":"send","rank":-1,"from":0,"to":0,"seq":0}`,
		`{"kind":"phase-begin","rank":2,"phase":"<\u00e9>","seq":-9,"wall_ns":5,"epoch":3,"wire":true}`,
		"\n\n{}\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadTraceJSONL(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTraceJSONL(&out, tr); err != nil {
			t.Fatalf("WriteTraceJSONL: %v", err)
		}
		back, err := ReadTraceJSONL(&out)
		if err != nil {
			t.Fatalf("trace read from %q writes as %q, which fails to read: %v", in, out.String(), err)
		}
		if back.P != tr.P || !slices.Equal(back.Events, tr.Events) {
			t.Fatalf("trace read from %q round-trips to different events:\n got %+v\nwant %+v", in, back.Events, tr.Events)
		}
	})
}

func TestReadTraceJSONLRejectsNegativeRank(t *testing.T) {
	// A negative rank used to parse and then panic in Trace.PerRank.
	for _, line := range []string{
		`{"kind":"send","rank":-1,"from":-1,"to":0,"seq":0,"words":1}`,
		`{"kind":"send","rank":0,"from":0,"to":-2,"seq":0,"words":1}`,
		`{"kind":"recv","rank":1,"from":-1,"to":1,"seq":0,"words":1}`,
	} {
		in := `{"kind":"phase-begin","rank":0,"from":0,"to":0,"seq":0}` + "\n" + line + "\n"
		_, err := ReadTraceJSONL(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "negative rank") {
			t.Errorf("%s: err = %v, want a line-2 negative-rank error", line, err)
		}
	}
}

// TestReadTraceJSONLRejectsRankGap: a trace whose ranks below the
// highest have no events is rejected, naming the highest rank and the
// ranks seen. One line naming rank 4,000,000 used to read as a
// four-million-rank trace, whose replay and Chrome export allocate per
// rank.
func TestReadTraceJSONLRejectsRankGap(t *testing.T) {
	for in, want := range map[string]string{
		`{"kind":"send","rank":4000000,"from":4000000,"to":0,"seq":0,"words":1}`:                     "names rank 4000000, but only 1 rank(s) have events",
		`{"kind":"phase-begin","rank":0,"seq":0}` + "\n" + `{"kind":"phase-begin","rank":2,"seq":0}`: "names rank 2, but only 2 rank(s) have events",
	} {
		if _, err := ReadTraceJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", in, err, want)
		}
	}
}

// TestEventKindsRoundTrip: every named event kind writes to JSONL under
// its String and reads back to itself. EventBarrier, which nothing
// emits, has no name to read.
func TestEventKindsRoundTrip(t *testing.T) {
	for k := machine.EventKind(0); k <= machine.EventDrop; k++ {
		if k == machine.EventBarrier {
			if _, ok := machine.ParseEventKind(k.String()); ok {
				t.Errorf("EventBarrier parses from %q", k.String())
			}
			continue
		}
		e := machine.Event{Kind: k, Step: -1}
		var buf bytes.Buffer
		if err := WriteTraceJSONL(&buf, NewTrace([]machine.Event{e})); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(buf.String(), `{"kind":"`+k.String()+`"`) {
			t.Errorf("%v writes as %s", k, buf.String())
		}
		back, err := ReadTraceJSONL(&buf)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if back.Events[0] != e {
			t.Errorf("%v reads back as %+v", k, back.Events[0])
		}
	}
}

func TestMetricsJSONLWellFormed(t *testing.T) {
	tr, _ := runPipeline(t, 3)
	tl, err := Replay(tr, DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetricsJSONL(&buf, tr, tl); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	phases, ranks := 0, 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad metrics line %q: %v", sc.Text(), err)
		}
		switch rec["scope"] {
		case "phase":
			phases++
		case "rank":
			ranks++
		default:
			t.Fatalf("unknown scope in %q", sc.Text())
		}
	}
	if phases != 2*3 || ranks != 3 {
		t.Errorf("got %d phase and %d rank records, want 6 and 3", phases, ranks)
	}
}

func TestGanttSmoke(t *testing.T) {
	tr, _ := runPipeline(t, 3)
	tl, err := Replay(tr, DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGantt(&buf, tl, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != tl.P+1 || !strings.Contains(out, "makespan") {
		t.Errorf("gantt output unexpected:\n%s", out)
	}
}

// fixtureEvents is a hand-built two-rank trace, fully deterministic (no
// goroutine scheduling or wall clock involved at all).
func fixtureEvents() []machine.Event {
	mk := func(rank int, seq int64, kind machine.EventKind, e machine.Event) machine.Event {
		e.Kind = kind
		e.Rank = rank
		e.Seq = seq
		if e.Kind != machine.EventSend && e.Kind != machine.EventRecv {
			e.From, e.To = rank, rank
		}
		e.Step = -1
		return e
	}
	events := []machine.Event{
		mk(0, 0, machine.EventPhaseBegin, machine.Event{Phase: "gather"}),
		mk(0, 1, machine.EventSend, machine.Event{From: 0, To: 1, Tag: 100, Words: 6, Phase: "gather"}),
		mk(0, 2, machine.EventRecv, machine.Event{From: 1, To: 0, Tag: 100, Words: 6, Phase: "gather"}),
		mk(0, 3, machine.EventPhaseEnd, machine.Event{Phase: "gather"}),
		mk(0, 4, machine.EventPhaseBegin, machine.Event{Phase: "local"}),
		mk(0, 5, machine.EventLocalCompute, machine.Event{Phase: "local", Ternary: 4000}),
		mk(0, 6, machine.EventPhaseEnd, machine.Event{Phase: "local"}),
		mk(1, 0, machine.EventPhaseBegin, machine.Event{Phase: "gather"}),
		mk(1, 1, machine.EventSend, machine.Event{From: 1, To: 0, Tag: 100, Words: 6, Phase: "gather"}),
		mk(1, 2, machine.EventRecv, machine.Event{From: 0, To: 1, Tag: 100, Words: 6, Phase: "gather"}),
		mk(1, 3, machine.EventPhaseEnd, machine.Event{Phase: "gather"}),
		mk(1, 4, machine.EventPhaseBegin, machine.Event{Phase: "local"}),
		mk(1, 5, machine.EventLocalCompute, machine.Event{Phase: "local", Ternary: 8000}),
		mk(1, 6, machine.EventPhaseEnd, machine.Event{Phase: "local"}),
	}
	return events
}

// fixtureTimeline replays fixtureEvents so the golden Chrome file is
// fully deterministic.
func fixtureTimeline(t *testing.T) *Timeline {
	t.Helper()
	tl, err := Replay(NewTrace(fixtureEvents()), TimeModel{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestGoldenChromeTrace pins the exporter's schema-stable fields against
// testdata/golden_chrome_trace.json. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/obs -run TestGoldenChromeTrace.
func TestGoldenChromeTrace(t *testing.T) {
	tl := fixtureTimeline(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_chrome_trace.json")
	if updateGolden() {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var gotRecs, wantRecs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &gotRecs); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatalf("golden file invalid: %v", err)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%d records, golden has %d", len(gotRecs), len(wantRecs))
	}
	// Compare schema-stable fields only: record identity and placement,
	// not incidental arg details.
	stable := []string{"name", "cat", "ph", "pid", "tid", "ts", "dur"}
	for i := range gotRecs {
		for _, k := range stable {
			g, w := gotRecs[i][k], wantRecs[i][k]
			if fmtJSON(g) != fmtJSON(w) {
				t.Errorf("record %d field %q: got %v, golden %v", i, k, g, w)
			}
		}
	}
}

func fmtJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func updateGolden() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

func TestChromeTraceStructure(t *testing.T) {
	tl := fixtureTimeline(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	threads := 0
	for _, rec := range recs {
		switch rec["ph"] {
		case "M":
			if rec["name"] == "thread_name" {
				threads++
			}
		case "X":
			if rec["ts"].(float64) < 0 || rec["dur"].(float64) < 0 {
				t.Errorf("negative ts/dur in %v", rec)
			}
		default:
			t.Errorf("unexpected ph %v", rec["ph"])
		}
	}
	if threads != tl.P {
		t.Errorf("%d thread_name metas, want %d", threads, tl.P)
	}
}

// TestServingMetricsJSONL pins the serving lines byte for byte: one
// scope:"serving" line for the pool aggregate, then one scope:"tenant"
// line per tenant, zero fields omitted except requests. An empty snapshot
// is one line.
func TestServingMetricsJSONL(t *testing.T) {
	full := &ServingSnapshot{
		Sessions: 2, MaxCols: 8, MaxWaitUs: 500,
		Requests: 100, Rejected: 3, Batches: 14, BatchErrors: 1,
		SizeFlushes: 11, WaitFlushes: 2, DrainFlushes: 1,
		AvgOccupancy: 100.0 / 14, MaxOccupancy: 8,
		QueueWaitAvgUs: 120, QueueWaitMaxUs: 900,
		ServiceAvgUs: 2400, ServiceMaxUs: 4100,
		Tenants: []ServingTenant{
			{Tenant: "a", Requests: 60, SentWords: 60 * 95, SentMsgs: 60 * 6.875, QueueWaitAvgUs: 110, QueueWaitMaxUs: 700},
			{Tenant: "b", Requests: 40, Rejected: 3, SentWords: 40 * 95, SentMsgs: 40 * 6.875, QueueWaitAvgUs: 135, QueueWaitMaxUs: 900},
			{},
		},
	}
	for _, c := range []struct {
		snap *ServingSnapshot
		want string
	}{
		{&ServingSnapshot{}, `{"scope":"serving","requests":0}` + "\n"},
		{full, `{"scope":"serving","sessions":2,"max_cols":8,"max_wait_us":500,"requests":100,"rejected":3,"batches":14,"batch_errors":1,"size_flushes":11,"wait_flushes":2,"drain_flushes":1,"avg_occupancy":7.142857142857143,"max_occupancy":8,"queue_wait_avg_us":120,"queue_wait_max_us":900,"service_avg_us":2400,"service_max_us":4100}
{"scope":"tenant","tenant":"a","requests":60,"sent_words":5700,"sent_msgs":412.5,"queue_wait_avg_us":110,"queue_wait_max_us":700}
{"scope":"tenant","tenant":"b","requests":40,"rejected":3,"sent_words":3800,"sent_msgs":275,"queue_wait_avg_us":135,"queue_wait_max_us":900}
{"scope":"tenant","requests":0}
`},
	} {
		var buf bytes.Buffer
		if err := WriteServingMetricsJSONL(&buf, c.snap); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != c.want {
			t.Errorf("serving lines:\n%s\nwant:\n%s", got, c.want)
		}
	}
}
