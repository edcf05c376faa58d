package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// sections splits a command's output at blank lines, dropping empty
// sections.
func sections(out string) [][]string {
	var secs [][]string
	for _, s := range strings.Split(out, "\n\n") {
		if s = strings.TrimSpace(s); s != "" {
			secs = append(secs, strings.Split(s, "\n"))
		}
	}
	return secs
}

// countPrefix counts the lines of out that start with prefix.
func countPrefix(out, prefix string) int {
	n := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}

// TestCommands runs each paper-artifact subcommand in-process and checks
// the paper's facts in its output: the shapes of Tables 1–3, the 12 steps
// of Figure 1, a verified Steiner system and one recommended machine. An
// unknown experiment or subcommand name must exit 2 and list the valid
// names on stderr instead of printing nothing, and a command that fails
// prints its error once and exits 1. A check reads stdout when the command
// succeeds and stderr when it fails.
func TestCommands(t *testing.T) {
	// tableRows checks a partition printout: title, then the processor
	// table (R_p, N_p, D_p) and the Q_i table, each under a header line.
	tableRows := func(procs, rowBlocks int) func(*testing.T, string) {
		return func(t *testing.T, out string) {
			secs := sections(out)
			if len(secs) != 3 {
				t.Fatalf("got %d sections, want title, processor table and Q_i table", len(secs))
			}
			if got := len(secs[1]) - 1; got != procs {
				t.Errorf("processor rows = %d, want %d", got, procs)
			}
			if got := len(secs[2]) - 1; got != rowBlocks {
				t.Errorf("Q_i rows = %d, want %d", got, rowBlocks)
			}
		}
	}
	listsNames := func(t *testing.T, stderr string) {
		for _, e := range experiments {
			if !strings.Contains(stderr, e.name) {
				t.Errorf("stderr does not name experiment %q", e.name)
			}
		}
		for _, c := range subcommands {
			if !strings.Contains(stderr, c.name) {
				t.Errorf("stderr does not name subcommand %q", c.name)
			}
		}
	}
	// printsOnce checks that a failure's stderr is its error, printed once
	// with one package prefix.
	printsOnce := func(want string) func(*testing.T, string) {
		return func(t *testing.T, stderr string) {
			if stderr != want+"\n" {
				t.Errorf("stderr %q, want %q", stderr, want+"\n")
			}
		}
	}
	cases := []struct {
		args  []string
		code  int
		check func(*testing.T, string)
	}{
		// Tables 1 and 2, Table 3, Figure 1.
		{[]string{"partition", "-q", "3"}, 0, tableRows(30, 10)},
		{[]string{"partition", "-sqs8"}, 0, tableRows(14, 8)},
		{[]string{"commsched", "-sqs8"}, 0, func(t *testing.T, out string) {
			if got := countPrefix(out, "step "); got != 12 {
				t.Errorf("steps = %d, want 12", got)
			}
		}},
		{[]string{"steiner", "-q", "3"}, 0, func(t *testing.T, out string) {
			if !strings.Contains(out, "every triple in exactly 1") {
				t.Error("no verified triple count")
			}
			if secs := sections(out); len(secs) != 2 || len(secs[1]) != 30 {
				t.Errorf("want 30 blocks of the (10, 4, 3) system, got %d sections", len(secs))
			}
		}},
		{[]string{"plan", "-n", "1000", "-maxp", "400"}, 0, func(t *testing.T, out string) {
			marked := 0
			for _, l := range strings.Split(out, "\n") {
				if strings.HasSuffix(l, " *") {
					marked++
				}
			}
			if marked != 1 {
				t.Errorf("%d rows marked recommended, want 1", marked)
			}
		}},
		{[]string{"-e", "figure"}, 0, func(t *testing.T, out string) {
			if !strings.Contains(out, "| schedule steps | 12 | 12 |") {
				t.Error("F1 does not measure 12 steps")
			}
		}},
		{[]string{"-e", "timline"}, 2, listsNames},
		{[]string{"partitoin", "-q", "3"}, 2, listsNames},
		{[]string{"-e", "figure", "partition"}, 2, nil},
		{[]string{"plan", "-maxp"}, 2, nil},
		{[]string{"steiner", "-q", "6"}, 1, printsOnce("steiner: q=6 is not a prime power")},
		{[]string{"plan", "-n", "0"}, 1, printsOnce("plan: Enumerate(0, 400)")},
		{[]string{"trace"}, 2, nil},
		{[]string{"trace", "-bogus", "e.jsonl"}, 2, nil},
		{[]string{"trace", "no-such-trace.jsonl"}, 2, nil},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			out := stdout.String()
			if c.code != 0 {
				if out != "" {
					t.Errorf("failed command printed to stdout:\n%s", out)
				}
				if out = stderr.String(); out == "" {
					t.Error("failed command printed nothing to stderr")
				}
			}
			if c.check != nil {
				c.check(t, out)
			}
		})
	}
}

// recordTrace records a q = 2 run of Algorithm 5 in-process and writes
// its trace as JSONL, the way sttsvrun -events does; it returns the path.
func recordTrace(t *testing.T) string {
	t.Helper()
	part, err := partition.NewSpherical(2)
	if err != nil {
		t.Fatal(err)
	}
	const b = 6
	var rec obs.Recorder
	if _, err := parallel.Run(nil, make([]float64, part.M*b), parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{Observer: rec.Observer()},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTraceJSONL(f, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceCommand replays a recorded trace with trace -timeline -gantt:
// the phase table must count the schedule's 9 steps per exchange, the
// makespan line must set the measured wall span beside the replayed one,
// and the timeline and the Gantt chart must list all 10 ranks.
func TestTraceCommand(t *testing.T) {
	path := recordTrace(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", "-timeline", "-gantt", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"| gather | 9 |", "| reduce-scatter | 9 |", "| rank | finish | compute | send | recv-wait | overlap | idle |", "over 10 ranks; measured "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if rows, bars := countPrefix(out, "| 9 | "), countPrefix(out, "   9 |"); rows != 1 || bars != 1 {
		t.Errorf("rank 9 has %d timeline rows and %d Gantt rows, want 1 each:\n%s", rows, bars, out)
	}
}

// TestTraceGate gates a recorded trace's measured makespan against its
// replay. A model that charges a second per message passes at factor 1;
// an all-zero model replays to zero time, so any measured time fails the
// gate, and the summary and the idle column must print no NaN or Inf.
// A failed gate exits 1 with nothing on stdout and the three numbers on
// stderr, like every failed command.
func TestTraceGate(t *testing.T) {
	path := recordTrace(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", "-alpha", "1", "-gate-makespan", "1", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("generous model: exit %d; stderr:\n%s", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"trace", "-alpha", "0", "-beta", "0", "-gamma", "0", "-timeline", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("zero model: exit %d; stderr:\n%s", code, stderr.String())
	}
	if out := stdout.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("zero model prints NaN or Inf:\n%s", out)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"trace", "-alpha", "0", "-beta", "0", "-gamma", "0", "-gate-makespan", "3", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("zero model gate: exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("failed gate printed to stdout:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "measured makespan") || !strings.Contains(msg, "exceeds 3× the α-β-γ replay 0s") {
		t.Errorf("stderr %q does not name the measured makespan, the factor and the replay", msg)
	}
}

// TestTraceRejectsRankGap: one line naming rank 4,000,000 used to replay
// into per-rank state for four million ranks (hundreds of MB, and GB
// with -chrome). The reader rejects a trace whose ranks below the
// highest have no events, so the command exits 1 before allocating.
func TestTraceRejectsRankGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gap.jsonl")
	line := `{"kind":"send","rank":4000000,"from":4000000,"to":0,"seq":0,"words":1}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected trace printed to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "rank 4000000") {
		t.Errorf("stderr %q does not name the rank", stderr.String())
	}
}
