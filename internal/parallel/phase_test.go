package parallel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestPhaseRecorderRejectsUnknownLabel: a misspelled phase label panics
// with the label's name before anything is metered, whether the recorder
// looks it up, meters communication under it or meters local compute
// under it. The bodies never run, so neither the recorder's meters nor
// the machine's move.
func TestPhaseRecorderRejectsUnknownLabel(t *testing.T) {
	const p = 2
	pr := newPhaseRecorder(p, nil, "gather", "local", "reduce-scatter")
	panics := make([][]string, p)
	rep, err := machine.RunWith(p, machine.RunConfig{Timeout: 10 * time.Second}, func(c *machine.Comm) {
		me := c.Rank()
		for _, use := range []func(){
			func() { pr.meter("gahter") },
			func() { pr.comm(c, "gahter", func() { c.Send(1-me, 0, []float64{1}) }) },
			func() { pr.local(c, "lcoal", func() int64 { return 1 }) },
		} {
			func() {
				defer func() { panics[me] = append(panics[me], fmt.Sprint(recover())) }()
				use()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range panics {
		for i, label := range []string{"gahter", "gahter", "lcoal"} {
			if i >= len(got) || !strings.Contains(got[i], fmt.Sprintf("%q is not registered", label)) {
				t.Errorf("rank %d use %d: recovered %q, want a panic naming label %q", r, i, got, label)
			}
		}
	}
	if rep.SentMsgs[0]+rep.SentMsgs[1] != 0 {
		t.Errorf("machine sent %v messages, want none", rep.SentMsgs)
	}
	pr.commit()
	for _, m := range pr.meters.rows {
		for r := 0; r < p; r++ {
			if m.SentWords[r]|m.RecvWords[r]|m.SentMsgs[r]|m.RecvMsgs[r]|m.Ternary[r] != 0 {
				t.Errorf("phase %q moved on rank %d: %+v", m.Label, r, m)
			}
		}
	}
}
