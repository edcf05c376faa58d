package parallel

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestExecutedMessagesConformToSchedule traces every message of an
// Algorithm 5 run and checks that the gather and reduce-scatter phases
// each execute exactly the planned schedule: same (from, to) pairs at the
// same steps, and nothing else — end-to-end evidence that the production
// exchange runs the §7.2 communication plan rather than merely counting
// like it.
func TestExecutedMessagesConformToSchedule(t *testing.T) {
	part := sphericalPart(t, 2)
	sched, err := schedule.Build(part)
	if err != nil {
		t.Fatal(err)
	}
	b := 6

	// A zero tensor is enough to validate the pattern; word counts are
	// checked by other tests.
	var rec obs.Recorder
	_, err = Run(nil, make([]float64, part.M*b), Options{
		Part: part, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{Observer: rec.Observer()},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Index the planned transfers by (phase tag base, step, from, to).
	type key struct{ base, step, from, to int }
	phases := map[string]int{"gather": 100, "reduce-scatter": 200}
	planned := make(map[key]bool)
	for _, base := range phases {
		for si, step := range sched.Steps {
			for _, tr := range step {
				planned[key{base, si, tr.From, tr.To}] = true
			}
		}
	}

	executed := 0
	for _, e := range rec.Trace().Events {
		if e.Kind != machine.EventSend || e.Wire {
			continue
		}
		executed++
		base, ok := phases[e.Phase]
		if !ok {
			t.Fatalf("message %d→%d outside the exchange phases (phase %q)", e.From, e.To, e.Phase)
		}
		k := key{base, e.Tag - base, e.From, e.To}
		if !planned[k] {
			t.Fatalf("%s executed unplanned transfer %+v (tag %d)", e.Phase, k, e.Tag)
		}
		delete(planned, k)
	}
	if len(planned) != 0 {
		t.Fatalf("%d planned transfers never executed (%d executed)", len(planned), executed)
	}
}
