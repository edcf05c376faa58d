package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/parallel"
)

// TestBatchRecoveryComposition fires a crash plan during a coalesced
// multi-tenant ApplyBatch with the recovery supervisor armed. Every
// tenant's committed result must be bit-identical to a solo Apply on a
// crash-free session, and the recovery incident must be attributed once
// — to the batch that absorbed it — not once per coalesced column.
func TestBatchRecoveryComposition(t *testing.T) {
	a, so := testSetup(t, 2, 4, 1200)
	n := a.N

	clean, err := parallel.OpenSession(a, so)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	const tenants = 4
	rng := rand.New(rand.NewSource(1201))
	xs := make([][]float64, tenants)
	want := make([][]float64, tenants)
	for i := range xs {
		xs[i] = randVec(n, rng)
		res, err := clean.Apply(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float64(nil), res.Y...)
	}

	// One session, one batch: the generous latency window coalesces all
	// four tenants into a single flush, and the crash plan kills rank 1
	// mid-schedule inside that flush.
	crashed := so
	crashed.Machine = machine.RunConfig{
		Transport: fault.Transport(fault.Plan{Seed: 7, Crash: map[int]int{1: 4}},
			fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout: 2 * time.Second,
	}
	crashed.Recovery = &parallel.RecoveryOptions{}
	pool, err := Open(a, Options{
		Session:  crashed,
		Sessions: 1,
		MaxCols:  tenants,
		MaxWait:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	got := make([]*Response, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pool.Apply("tenant", xs[i])
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			got[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := range got {
		if !bitsEqual(got[i].Y, want[i]) {
			t.Errorf("tenant %d: recovered batch Y not bit-identical to crash-free solo Apply", i)
		}
	}

	st := pool.RecoveryStats()
	if st.RankDowns != 1 {
		t.Errorf("RankDowns = %d, want exactly 1: one crash, one incident, however many columns rode the batch", st.RankDowns)
	}
	if st.Relaunches != 1 || st.Retries != 1 || st.Rollbacks != 1 {
		t.Errorf("stats %+v: want one relaunch, one replay and one rollback for the one crash", st)
	}
}
