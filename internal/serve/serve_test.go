package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randVec(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func testSetup(t testing.TB, q, b int, seed int64) (*tensor.Symmetric, parallel.Options) {
	t.Helper()
	part, err := partition.NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	a := tensor.Random(part.M*b, rng)
	return a, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P}
}

// TestPoolBitIdentical is the serving-tier correctness bar: every
// response served through the coalescing pool — whatever batch its
// request landed in — must be bit-identical to a solo Session.Apply of
// the same vector.
func TestPoolBitIdentical(t *testing.T) {
	a, so := testSetup(t, 2, 4, 1100)
	n := a.N

	solo, err := parallel.OpenSession(a, so)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()

	pool, err := Open(a, Options{
		Session:  so,
		Sessions: 2,
		MaxCols:  4,
		MaxWait:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Dim() != n {
		t.Fatalf("Dim() = %d, want %d", pool.Dim(), n)
	}

	const tenants = 6
	const perTenant = 5
	rng := rand.New(rand.NewSource(1101))
	xs := make([][]float64, tenants*perTenant)
	want := make([][]float64, len(xs))
	for i := range xs {
		xs[i] = randVec(n, rng)
		res, err := solo.Apply(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float64(nil), res.Y...)
	}

	var wg sync.WaitGroup
	errc := make(chan error, len(xs))
	var maxBatch atomic.Int64
	for ti := 0; ti < tenants; ti++ {
		for k := 0; k < perTenant; k++ {
			i := ti*perTenant + k
			wg.Add(1)
			go func(ti, i int) {
				defer wg.Done()
				resp, err := pool.Apply(string(rune('A'+ti)), xs[i])
				if err != nil {
					errc <- err
					return
				}
				if !bitsEqual(resp.Y, want[i]) {
					t.Errorf("request %d: pooled Y not bit-identical to solo Apply", i)
				}
				if resp.BatchCols < 1 || resp.BatchCols > 4 {
					t.Errorf("request %d: BatchCols = %d outside [1,MaxCols]", i, resp.BatchCols)
				}
				if int64(resp.BatchCols) > maxBatch.Load() {
					maxBatch.Store(int64(resp.BatchCols))
				}
				if resp.SentWords() <= 0 {
					t.Errorf("request %d: SentWords share %d", i, resp.SentWords())
				}
				if resp.SentMsgs() <= 0 {
					t.Errorf("request %d: SentMsgs share %g", i, resp.SentMsgs())
				}
			}(ti, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if !errors.Is(err, parallel.ErrSessionBusy) {
			t.Fatalf("pool.Apply: %v", err)
		}
	}

	m := pool.Metrics()
	if m.Requests+m.Rejected == 0 {
		t.Fatal("no requests recorded")
	}
	if m.Batches != m.SizeFlushes+m.WaitFlushes+m.DrainFlushes {
		t.Errorf("batches %d != size %d + wait %d + drain %d",
			m.Batches, m.SizeFlushes, m.WaitFlushes, m.DrainFlushes)
	}
	var tenantReqs int64
	for _, tn := range m.Tenants {
		tenantReqs += tn.Requests
	}
	if tenantReqs != m.Requests {
		t.Errorf("tenant request sum %d != pool requests %d", tenantReqs, m.Requests)
	}
	if m.MaxOccupancy != int(maxBatch.Load()) {
		t.Errorf("MaxOccupancy %d, responses saw %d", m.MaxOccupancy, maxBatch.Load())
	}
}

// TestWaitTrigger: with a size trigger far out of reach, a lone request
// must still be served within (roughly) MaxWait — the latency trigger
// fires, and the batch reports it.
func TestWaitTrigger(t *testing.T) {
	a, so := testSetup(t, 2, 2, 1102)
	pool, err := Open(a, Options{Session: so, MaxCols: 64, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	rng := rand.New(rand.NewSource(1103))
	resp, err := pool.Apply("loner", randVec(a.N, rng))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trigger != TriggerWait {
		t.Errorf("Trigger = %v, want %v", resp.Trigger, TriggerWait)
	}
	if resp.BatchCols != 1 {
		t.Errorf("BatchCols = %d, want 1", resp.BatchCols)
	}
	if m := pool.Metrics(); m.WaitFlushes != 1 {
		t.Errorf("WaitFlushes = %d, want 1", m.WaitFlushes)
	}
}

// TestSizeTrigger: with the latency window effectively infinite, a
// saturating burst must flush on size alone, at full occupancy.
func TestSizeTrigger(t *testing.T) {
	a, so := testSetup(t, 2, 2, 1104)
	const cols = 4
	pool, err := Open(a, Options{Session: so, MaxCols: cols, MaxWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1105))
	var wg sync.WaitGroup
	for i := 0; i < cols; i++ {
		x := randVec(a.N, rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := pool.Apply("burst", x)
			if err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
			if resp.Trigger != TriggerSize {
				t.Errorf("Trigger = %v, want %v", resp.Trigger, TriggerSize)
			}
			if resp.BatchCols != cols {
				t.Errorf("BatchCols = %d, want %d", resp.BatchCols, cols)
			}
		}()
	}
	wg.Wait()
	m := pool.Metrics()
	if m.SizeFlushes != 1 || m.Batches != 1 {
		t.Errorf("SizeFlushes = %d, Batches = %d, want 1, 1", m.SizeFlushes, m.Batches)
	}
	if m.AvgOccupancy != cols {
		t.Errorf("AvgOccupancy = %g, want %d", m.AvgOccupancy, cols)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullBusy: a burst beyond QueueCap must fail fast with a
// structured *BusyError that still matches parallel.ErrSessionBusy, and
// the pool must keep serving afterwards.
func TestQueueFullBusy(t *testing.T) {
	a, so := testSetup(t, 2, 2, 1106)
	pool, err := Open(a, Options{
		Session:  so,
		MaxCols:  2,
		MaxWait:  50 * time.Millisecond,
		QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	rng := rand.New(rand.NewSource(1107))
	x := randVec(a.N, rng)
	const burst = 64
	var wg sync.WaitGroup
	var busy, served atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pool.Apply("flood", x)
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, parallel.ErrSessionBusy):
				busy.Add(1)
				var be *BusyError
				if !errors.As(err, &be) {
					t.Errorf("busy rejection is %T, want *BusyError", err)
					return
				}
				if be.QueueCap != 2 {
					t.Errorf("BusyError.QueueCap = %d, want 2", be.QueueCap)
				}
				if be.RetryAfter <= 0 {
					t.Errorf("BusyError.RetryAfter = %v, want > 0", be.RetryAfter)
				}
			default:
				t.Errorf("Apply: %v", err)
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Error("no request was ever served")
	}
	if busy.Load() == 0 {
		t.Error("no request was ever rejected; queue bound untested (raise burst)")
	}
	m := pool.Metrics()
	if m.Rejected != busy.Load() {
		t.Errorf("Metrics.Rejected = %d, callers saw %d", m.Rejected, busy.Load())
	}

	// The pool is not poisoned by rejections: a quiet follow-up succeeds.
	if _, err := pool.Apply("after", x); err != nil {
		t.Fatalf("Apply after rejections: %v", err)
	}
}

// TestCloseSemantics: Close drains already-admitted requests (served,
// not errored), later Applies get ErrPoolClosed, and Close is
// idempotent. Under a flood of 10× QueueCap callers looping on Apply,
// every call still ends in bounded time — with a result, a *BusyError or
// ErrPoolClosed — and Close leaves no goroutine behind, on a dense and on
// a sparse pool.
func TestCloseSemantics(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		a, so := testSetup(t, 2, 2, 1108)
		pool, err := Open(a, Options{Session: so, MaxCols: 8, MaxWait: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1109))
		const inflight = 3
		var wg sync.WaitGroup
		for i := 0; i < inflight; i++ {
			x := randVec(a.N, rng)
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := pool.Apply("drain", x)
				if err != nil {
					t.Errorf("admitted request errored on close: %v", err)
					return
				}
				if resp.Trigger != TriggerDrain {
					t.Errorf("Trigger = %v, want %v", resp.Trigger, TriggerDrain)
				}
			}()
		}
		// Give the requests time to be admitted (the minute-long window
		// guarantees they are still queued, not flushed).
		time.Sleep(20 * time.Millisecond)
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		if _, err := pool.Apply("late", randVec(a.N, rng)); !errors.Is(err, ErrPoolClosed) {
			t.Errorf("Apply after Close: %v, want ErrPoolClosed", err)
		}
		if err := pool.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if m := pool.Metrics(); m.DrainFlushes == 0 {
			t.Error("DrainFlushes = 0 after draining close")
		}
	})
	t.Run("flood/dense", func(t *testing.T) {
		a, so := testSetup(t, 2, 2, 1113)
		floodClose(t, a.N, func(o Options) (*Pool, error) {
			o.Session = so
			return Open(a, o)
		})
	})
	t.Run("flood/sparse", func(t *testing.T) {
		sp, so := sparseSetup(t, 2, 3, 0.2, 1114)
		floodClose(t, sp.N, func(o Options) (*Pool, error) {
			o.Session = so
			return OpenSparse(sp, o)
		})
	})
}

// floodClose opens a pool with a small queue, floods it with 10×
// QueueCap callers that each call Apply in a loop, and closes it once
// the flood has been both served and turned away.
func floodClose(t *testing.T, n int, open func(Options) (*Pool, error)) {
	const (
		queueCap = 4
		callers  = 10 * queueCap
		bound    = 30 * time.Second // per Apply, for Close, for the callers to leave
	)
	before := runtime.NumGoroutine()
	pool, err := open(Options{MaxCols: 2, MaxWait: time.Millisecond, QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x := randVec(n, rand.New(rand.NewSource(1115)))
	served, rejected := make(chan struct{}), make(chan struct{})
	var servedOnce, rejectedOnce sync.Once
	var closed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Now()
				_, err := pool.Apply("flood", x)
				if d := time.Since(start); d > bound {
					t.Errorf("Apply took %v under flood, bound %v", d, bound)
				}
				var be *BusyError
				switch {
				case err == nil:
					servedOnce.Do(func() { close(served) })
				case errors.As(err, &be):
					rejectedOnce.Do(func() { close(rejected) })
				case errors.Is(err, ErrPoolClosed):
					closed.Add(1)
					return
				default:
					t.Errorf("Apply under flood: %v", err)
					return
				}
			}
		}()
	}
	for _, ev := range []chan struct{}{served, rejected} {
		select {
		case <-ev:
		case <-time.After(bound):
			t.Fatal("flood neither served nor rejected a request")
		}
	}

	closeErr := make(chan error, 1)
	go func() { closeErr <- pool.Close() }()
	select {
	case err := <-closeErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(bound):
		t.Fatal("Close did not return under flood")
	}
	left := make(chan struct{})
	go func() {
		wg.Wait()
		close(left)
	}()
	select {
	case <-left:
	case <-time.After(bound):
		t.Fatal("callers still inside Apply after Close")
	}
	if got := closed.Load(); got != callers {
		t.Errorf("%d of %d callers ended on ErrPoolClosed", got, callers)
	}
	for deadline := time.Now().Add(bound); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
	}
}

// TestApplyValidation: a wrong-length vector and a tenant name over 256
// bytes are rejected before admission — no queue slot consumed, no batch
// formed, no ledger row. A 256-byte name is served.
func TestApplyValidation(t *testing.T) {
	a, so := testSetup(t, 2, 2, 1110)
	pool, err := Open(a, Options{Session: so})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Apply("bad", make([]float64, a.N+1)); err == nil {
		t.Fatal("oversized vector accepted")
	}
	if _, err := pool.Apply(strings.Repeat("t", 257), make([]float64, a.N)); err == nil {
		t.Fatal("257-byte tenant name accepted")
	}
	if m := pool.Metrics(); m.Requests != 0 || m.Batches != 0 || len(m.Tenants) != 0 {
		t.Errorf("validation failure reached the scheduler: %+v", m)
	}
	if _, err := pool.Apply(strings.Repeat("t", 256), make([]float64, a.N)); err != nil {
		t.Fatalf("256-byte tenant name: %v", err)
	}
}

// TestTenantLedgerBounded: tenant names come from clients, so the ledger
// keeps at most 1,024 named rows and counts every later name under one
// "(other)" row, while a named row keeps counting its own requests.
func TestTenantLedgerBounded(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 1030; i++ {
		m.reject(fmt.Sprintf("tenant-%04d", i))
	}
	m.reject("tenant-0000")
	rows := m.snapshot(1, 1, 0).Tenants
	if len(rows) != 1025 {
		t.Fatalf("%d ledger rows, want 1,024 named and one (other)", len(rows))
	}
	for _, row := range rows {
		want := int64(1)
		switch row.Tenant {
		case "(other)":
			want = 6
		case "tenant-0000":
			want = 2
		}
		if row.Rejected != want {
			t.Errorf("row %q rejected %d, want %d", row.Tenant, row.Rejected, want)
		}
	}
}

// TestOpenRejectsOversizeTensor: a tensor one row past the padded
// dimension M·b, or one of dimension 0, fails at open — a session, a
// pool and a one-shot Run — rather than opening something whose every
// operation fails.
func TestOpenRejectsOversizeTensor(t *testing.T) {
	_, so := testSetup(t, 2, 3, 1113)
	for _, n := range []int{so.Part.M*so.B + 1, 0} {
		a := tensor.Random(n, rand.New(rand.NewSource(1114)))
		if s, err := parallel.OpenSession(a, so); err == nil {
			s.Close()
			t.Errorf("OpenSession accepted n=%d with padded dimension %d", n, so.Part.M*so.B)
		}
		if pool, err := Open(a, Options{Session: so}); err == nil {
			pool.Close()
			t.Errorf("Open accepted n=%d with padded dimension %d", n, so.Part.M*so.B)
		}
		if _, err := parallel.Run(a, make([]float64, n), so); err == nil {
			t.Errorf("Run accepted n=%d with padded dimension %d", n, so.Part.M*so.B)
		}
	}
}

// TestOpenSharedBlocks: the pool packs the tensor once and shares the
// blocks across sessions; a caller-packed RankBlocks is used as-is.
func TestOpenSharedBlocks(t *testing.T) {
	a, so := testSetup(t, 2, 3, 1111)
	blocks, err := parallel.PackRankBlocks(a, so.Part, so.B)
	if err != nil {
		t.Fatal(err)
	}
	so.Blocks = blocks
	pool, err := Open(a, Options{Session: so, Sessions: 3, MaxCols: 2, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rng := rand.New(rand.NewSource(1112))
	x := randVec(a.N, rng)
	solo, err := parallel.OpenSession(a, so)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	want, err := solo.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pool.Apply("t", x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(resp.Y, want.Y) {
		t.Fatal("shared-blocks pool Y not bit-identical to solo Apply")
	}
}
