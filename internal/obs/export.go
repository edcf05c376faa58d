package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/machine"
)

// chromeEvent is one trace_event record in the Chrome/Perfetto JSON Array
// Format: "X" complete events with microsecond timestamps, pid = 0 (the
// simulated machine), tid = rank.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata record ("M" phase) naming processes/threads.
type chromeMeta struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// WriteChromeTrace writes tl in the Chrome trace_event JSON Array Format,
// loadable in chrome://tracing and https://ui.perfetto.dev. Each rank
// becomes one thread row; phase spans contain the send/compute/wait
// slices replayed inside them. Timestamps are simulated microseconds
// under tl.Model, not wall-clock.
func WriteChromeTrace(w io.Writer, tl *Timeline) error {
	const usec = 1e6
	var records []any
	records = append(records, chromeMeta{
		Name: "process_name", Phase: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "simulated machine"},
	})
	for r := 0; r < tl.P; r++ {
		records = append(records, chromeMeta{
			Name: "thread_name", Phase: "M", Pid: 0, Tid: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
	}
	for r := 0; r < tl.P; r++ {
		for _, sp := range tl.Spans[r] {
			name := sp.Label
			if sp.Kind != SpanPhase {
				name = string(sp.Kind)
			}
			rec := chromeEvent{
				Name: name, Cat: string(sp.Kind), Phase: "X",
				Ts: sp.Start * usec, Dur: sp.Dur() * usec,
				Pid: 0, Tid: r,
			}
			if sp.Kind != SpanPhase && sp.Label != "" {
				rec.Args = map[string]any{"detail": sp.Label}
			}
			records = append(records, rec)
		}
	}
	// Hand-roll the array so each record sits on its own line: diffable,
	// and still valid trace_event JSON.
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, rec := range records {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(records)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// jsonlEvent is the stable on-disk shape of one trace event. Field names
// are part of the tooling contract; zero-valued optional fields are
// omitted to keep lines short.
type jsonlEvent struct {
	Kind    string `json:"kind"`
	Rank    int    `json:"rank"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Tag     int    `json:"tag,omitempty"`
	Words   int    `json:"words,omitempty"`
	Phase   string `json:"phase,omitempty"`
	Op      string `json:"op,omitempty"`
	Seq     int64  `json:"seq"`
	Step    int    `json:"step,omitempty"`
	Ternary int64  `json:"ternary,omitempty"`
	Wire    bool   `json:"wire,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	Wall    int64  `json:"wall_ns,omitempty"`
}

// WriteTraceJSONL writes the trace as one JSON object per line in
// canonical (rank, seq) order — the flat interchange format read back by
// ReadTraceJSONL and by the experiments trace subcommand.
func WriteTraceJSONL(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		je := jsonlEvent{
			Kind: e.Kind.String(), Rank: e.Rank, From: e.From, To: e.To,
			Tag: e.Tag, Words: e.Words, Phase: e.Phase, Op: e.Op,
			Seq: e.Seq, Ternary: e.Ternary, Wire: e.Wire, Epoch: e.Epoch,
			Wall: e.Wall,
		}
		switch e.Kind {
		case machine.EventRecoveryBegin:
			je.Step = e.Step // retry attempt index, 1-based
		case machine.EventRecoveryEnd:
			je.Step = e.Step + 1 // checkpoint event seq; shift so seq 0 survives omitempty
		case machine.EventRestoreMismatch:
			je.Step = e.Step + 1 // failing page index; shift so page 0 survives omitempty
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceJSONL parses a JSONL trace written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) (*Trace, error) {
	var events []machine.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		kind, ok := machine.ParseEventKind(je.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown kind %q", line, je.Kind)
		}
		if je.Rank < 0 || je.From < 0 || je.To < 0 {
			return nil, fmt.Errorf("obs: trace line %d: negative rank (rank %d, from %d, to %d)", line, je.Rank, je.From, je.To)
		}
		e := machine.Event{
			Kind: kind, Rank: je.Rank, From: je.From, To: je.To,
			Tag: je.Tag, Words: je.Words, Phase: je.Phase, Op: je.Op,
			Seq: je.Seq, Step: -1, Ternary: je.Ternary, Wire: je.Wire,
			Epoch: je.Epoch, Wall: je.Wall,
		}
		switch kind {
		case machine.EventRecoveryBegin:
			e.Step = je.Step
		case machine.EventRecoveryEnd, machine.EventRestoreMismatch:
			e.Step = je.Step - 1
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every rank of a run emits events, so a rank below the highest with
	// none marks a damaged trace. Rejecting it keeps the per-rank state of
	// a replay proportional to the file, not to the highest rank a line
	// names.
	t := NewTrace(events)
	seen := 0
	for i, e := range t.Events {
		if i == 0 || e.Rank != t.Events[i-1].Rank {
			seen++
		}
	}
	if seen != t.P {
		return nil, fmt.Errorf("obs: trace names rank %d, but only %d rank(s) have events", t.P-1, seen)
	}
	return t, nil
}

// metricsRecord is one flat metrics line of a run: a per-phase
// aggregate, a per-rank aggregate, or the run's recovery summary. Scope
// is "phase", "rank" or "recovery".
type metricsRecord struct {
	Scope     string  `json:"scope"`
	Phase     string  `json:"phase,omitempty"`
	Rank      int     `json:"rank"`
	SentWords int64   `json:"sent_words"`
	RecvWords int64   `json:"recv_words"`
	SentMsgs  int64   `json:"sent_msgs"`
	RecvMsgs  int64   `json:"recv_msgs"`
	Ternary   int64   `json:"ternary,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	Finish    float64 `json:"finish_s,omitempty"`
	Compute   float64 `json:"compute_s,omitempty"`
	SendTime  float64 `json:"send_s,omitempty"`
	Idle      float64 `json:"idle_s,omitempty"`
	Overlap   float64 `json:"overlap_s,omitempty"`
	RankDowns int     `json:"rank_downs,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Rollbacks int     `json:"rollbacks,omitempty"`
	Verified  int     `json:"restore_verifications,omitempty"`
	Mismatch  int     `json:"restore_mismatches,omitempty"`
	MaxEpoch  int64   `json:"max_epoch,omitempty"`
}

// WriteMetricsJSONL writes flat per-phase-per-rank and per-rank metric
// records derived from the trace, one JSON object per line. When tl is
// non-nil the per-rank records also carry the replayed timeline's time
// attribution (finish, compute, send, idle, overlap seconds).
func WriteMetricsJSONL(w io.Writer, t *Trace, tl *Timeline) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	totals, order := t.PhaseTotals()
	for _, label := range order {
		pt := totals[label]
		for r := 0; r < t.P; r++ {
			rec := metricsRecord{
				Scope: "phase", Phase: label, Rank: r,
				SentWords: pt.SentWords[r], RecvWords: pt.RecvWords[r],
				SentMsgs: pt.SentMsgs[r], RecvMsgs: pt.RecvMsgs[r],
				Ternary: pt.Ternary[r], Steps: pt.Steps,
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	rank := t.RankTotals()
	for r := 0; r < t.P; r++ {
		rec := metricsRecord{
			Scope: "rank", Rank: r,
			SentWords: rank.SentWords[r], RecvWords: rank.RecvWords[r],
			SentMsgs: rank.SentMsgs[r], RecvMsgs: rank.RecvMsgs[r],
			Ternary: rank.Ternary[r],
		}
		if tl != nil && r < tl.P {
			rec.Finish = tl.Finish[r]
			rec.Compute = tl.Compute[r]
			rec.SendTime = tl.SendTime[r]
			rec.Idle = tl.RecvWait[r]
			rec.Overlap = tl.Overlap[r]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if rc := t.RecoveryCounts(); rc.RankDowns > 0 || rc.Recoveries > 0 || rc.Rollbacks > 0 {
		rec := metricsRecord{
			Scope:     "recovery",
			RankDowns: rc.RankDowns, Retries: rc.Recoveries, Rollbacks: rc.Rollbacks,
			Verified: rc.Verifications, Mismatch: rc.Mismatches,
			MaxEpoch: rc.MaxEpoch,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ServingTenant is one tenant's lifetime aggregate over a serving pool:
// its request count and its amortized share of the coalesced batches'
// traffic. Word and compute shares are exact (they scale linearly with
// batch columns); message shares are the fractional 1/cols split that
// coalescing buys, so they are reported as a float. Its JSON form is the
// body of a scope:"tenant" serving line.
type ServingTenant struct {
	Tenant         string  `json:"tenant,omitempty"`
	Requests       int64   `json:"requests"`
	Rejected       int64   `json:"rejected,omitempty"`
	SentWords      int64   `json:"sent_words,omitempty"`
	SentMsgs       float64 `json:"sent_msgs,omitempty"`
	QueueWaitAvgUs float64 `json:"queue_wait_avg_us,omitempty"`
	QueueWaitMaxUs float64 `json:"queue_wait_max_us,omitempty"`
}

// ServingSnapshot aggregates a serving pool's admission and batching
// counters at one instant: the dual-trigger flush split, batch occupancy,
// queue-wait and service-time attribution, and the per-tenant ledger.
// Produced by the serve package; its JSON form, Tenants aside, is the
// body of the scope:"serving" line.
type ServingSnapshot struct {
	Sessions       int             `json:"sessions,omitempty"`
	MaxCols        int             `json:"max_cols,omitempty"`
	MaxWaitUs      float64         `json:"max_wait_us,omitempty"`
	Requests       int64           `json:"requests"`
	Rejected       int64           `json:"rejected,omitempty"`
	Batches        int64           `json:"batches,omitempty"`
	BatchErrors    int64           `json:"batch_errors,omitempty"`
	SizeFlushes    int64           `json:"size_flushes,omitempty"`
	WaitFlushes    int64           `json:"wait_flushes,omitempty"`
	DrainFlushes   int64           `json:"drain_flushes,omitempty"`
	AvgOccupancy   float64         `json:"avg_occupancy,omitempty"`
	MaxOccupancy   int             `json:"max_occupancy,omitempty"`
	QueueWaitAvgUs float64         `json:"queue_wait_avg_us,omitempty"`
	QueueWaitMaxUs float64         `json:"queue_wait_max_us,omitempty"`
	ServiceAvgUs   float64         `json:"service_avg_us,omitempty"`
	ServiceMaxUs   float64         `json:"service_max_us,omitempty"`
	Tenants        []ServingTenant `json:"-"`
}

// WriteServingMetricsJSONL writes a serving snapshot as flat JSONL metric
// records: the pool aggregate under scope "serving" followed by one
// "tenant" record per tenant, in the snapshot's (sorted) tenant order.
func WriteServingMetricsJSONL(w io.Writer, s *ServingSnapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Scope string `json:"scope"`
		*ServingSnapshot
	}{"serving", s}); err != nil {
		return err
	}
	for _, tn := range s.Tenants {
		if err := enc.Encode(struct {
			Scope string `json:"scope"`
			ServingTenant
		}{"tenant", tn}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
