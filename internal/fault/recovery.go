package fault

import (
	"sort"
	"sync"

	"repro/internal/machine"
)

// CrashRegistry remembers which ranks have already fired their scheduled
// crash, shared across every transport incarnation of a recovering
// session — the original launch and every relaunch consult the same
// registry. Without it a relaunched rank's fresh injector would reset its
// delivery clock and re-fire the same crash forever, so no retry budget
// could ever converge.
type CrashRegistry struct {
	mu    sync.Mutex
	fired map[int]bool
}

// claim consumes rank's one crash allowance; false if already fired.
func (cr *CrashRegistry) claim(rank int) bool {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.fired[rank] {
		return false
	}
	if cr.fired == nil {
		cr.fired = make(map[int]bool)
	}
	cr.fired[rank] = true
	return true
}

// Fired lists the ranks whose crash has fired, sorted.
func (cr *CrashRegistry) Fired() []int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	out := make([]int, 0, len(cr.fired))
	for r := range cr.fired {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// InjectRecoverable is Inject with the plan's crash faults routed through
// reg: each rank's crash fires at most once for the registry's lifetime,
// however many times the rank's transport is rebuilt. A nil reg is plain
// Inject.
func InjectRecoverable(w machine.Wire, plan Plan, reg *CrashRegistry) machine.Wire {
	iw := Inject(w, plan)
	if i, ok := iw.(*injector); ok {
		i.reg = reg
	}
	return iw
}
