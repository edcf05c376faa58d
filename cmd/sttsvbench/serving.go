package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The -serve mode is the serving-tier load generator: closed-loop
// concurrent clients drive a serve.Pool (session pool + dual-trigger
// request batching), and the throughput points' rates are quoted against
// two references run on solo sessions in the same process: a serial
// client (one Session.Apply at a time) and direct back-to-back ApplyBatch
// calls at the pool's MaxCols width on as many solo sessions as the pool
// has. Such a point's window is cut into rounds of a serial slice, then a
// pool slice and a direct-batch slice in alternating order, so host-speed
// drift lands in all three rates alike instead of in their ratios, and
// the point's ratios are the medians of the per-round ratios. With -check
// the other points run the pool alone, since no gate reads their
// references; the regeneration run measures them at every point.
//
// The coalescing win is the pool against serial: a schedule step's
// message count is independent of how many columns the message carries,
// so r coalesced requests cost 1× the messages of a solo apply. How large
// that win is depends on what a message costs — the cheaper a message,
// the less there is to amortize — so the gates hold it only to an
// absolute floor, and judge the serving tier itself against the direct
// batch, which pays the same per-message cost as the pool.
//
// Every response is checked bit-identical to a solo Session.Apply of the
// same vector while the load runs — the generator doubles as a
// correctness harness under concurrency.
//
// Gates (with -check, compared on same-host ratios so they transfer
// across runner hardware):
//   - gates "throughput" (8 clients, 1 session, MaxCols=8) and
//     "throughput64" (64 clients, 2 sessions): the pool's request rate
//     ≥3× the serial client's — the paper's "r users for 1× messages"
//     turned into a serving-rate floor — a mean batch occupancy
//     ≥0.75×MaxCols, which fails when the batcher stops filling batches,
//     and a batch efficiency (the pool's rate over the direct batch's
//     column rate) ≥0.9× the committed baseline's, which fails when the
//     serving tier itself slows.
//   - gate "latency" (capacity-provisioned: clients = MaxCols, 2
//     sessions): p99 request latency ≤ 1.5 × (MaxWait + p99 batch
//     service) — the dual trigger's promise that batching delay stays
//     bounded by the window plus one apply.

// servingSlices is how many rounds a point runs; each slice lasts
// window/servingSlices.
const servingSlices = 10

type servingPoint struct {
	Clients   int     `json:"clients"`
	Sessions  int     `json:"sessions"`
	MaxCols   int     `json:"max_cols"`
	MaxWaitUs float64 `json:"max_wait_us"`
	QueueCap  int     `json:"queue_cap"`
	// Gate marks the points the -check mode enforces.
	Gate string `json:"gate,omitempty"`

	// Client-side counts over the pool's slices.
	Requests   int64   `json:"requests"`
	Rejected   int64   `json:"rejected"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	// Request latency percentiles (admission to response).
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	// Batch service time (one ApplyBatch call) seen by the requests.
	ServiceAvgUs float64 `json:"service_avg_us"`
	ServiceP99Us float64 `json:"service_p99_us"`
	// Pool-side batching counters for the whole point (includes priming).
	Batches      int64   `json:"batches"`
	AvgOccupancy float64 `json:"avg_occupancy"`
	SizeFlushes  int64   `json:"size_flushes"`
	WaitFlushes  int64   `json:"wait_flushes"`

	// The references, measured in the slices between the pool's: a
	// serial client's Apply rate on one solo session and a direct
	// MaxCols-column ApplyBatch's column rate on as many solo sessions as
	// the pool has. Zero where the run did not measure them.
	SerialReqsPerSec float64 `json:"serial_reqs_per_sec"`
	BatchReqsPerSec  float64 `json:"batch_reqs_per_sec"`
	// SpeedupVsSerial and BatchEfficiency are the medians over rounds of
	// the pool's rate over the serial and the direct-batch rate: the
	// coalescing win, and the share of a direct batch's column rate the
	// serving tier delivers.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	BatchEfficiency float64 `json:"batch_efficiency"`
}

type servingReport struct {
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Timestamp  string         `json:"timestamp"`
	Config     parallelConfig `json:"config"`
	WindowMs   float64        `json:"window_ms"`

	Points []servingPoint `json:"points"`
}

func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// poolLoad accumulates one point's pool slices: closed-loop clients
// issuing back-to-back requests, each response checked bit-identical
// against the solo-session reference for its vector.
type poolLoad struct {
	pool       *serve.Pool
	clients    int
	xs, wants  [][]float64
	lats, svcs []time.Duration
	rejected   int64
	elapsed    time.Duration
}

// slice runs the clients for d.
func (pl *poolLoad) slice(d time.Duration) error {
	lats := make([][]time.Duration, pl.clients)
	svcs := make([][]time.Duration, pl.clients)
	var rejected atomic.Int64
	var mismatches atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < pl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := pl.xs[c%len(pl.xs)]
			want := pl.wants[c%len(pl.wants)]
			tenant := fmt.Sprintf("tenant-%02d", c%16)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := pl.pool.Apply(tenant, x)
				if err != nil {
					var be *serve.BusyError
					if errors.As(err, &be) {
						rejected.Add(1)
						// The hint can span several batches; a bounded nap
						// keeps the closed loop live without hammering the
						// full queue.
						nap := be.RetryAfter
						if nap > time.Millisecond {
							nap = time.Millisecond
						}
						time.Sleep(nap)
						continue
					}
					firstErr.CompareAndSwap(nil, err)
					return
				}
				lats[c] = append(lats[c], time.Since(t0))
				svcs[c] = append(svcs[c], resp.Service)
				if !bitsIdentical(resp.Y, want) {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	pl.elapsed += time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	if n := mismatches.Load(); n > 0 {
		return fmt.Errorf("%d responses were not bit-identical to the solo session", n)
	}
	for c := range lats {
		pl.lats = append(pl.lats, lats[c]...)
		pl.svcs = append(pl.svcs, svcs[c]...)
	}
	pl.rejected += rejected.Load()
	return nil
}

// point summarizes the pool's slices.
func (pl *poolLoad) point() servingPoint {
	sort.Slice(pl.lats, func(i, j int) bool { return pl.lats[i] < pl.lats[j] })
	sort.Slice(pl.svcs, func(i, j int) bool { return pl.svcs[i] < pl.svcs[j] })
	var svcSum time.Duration
	for _, s := range pl.svcs {
		svcSum += s
	}
	pt := servingPoint{
		Clients:  pl.clients,
		Requests: int64(len(pl.lats)),
		Rejected: pl.rejected,
		P50Us:    percentileUs(pl.lats, 0.50),
		P95Us:    percentileUs(pl.lats, 0.95),
		P99Us:    percentileUs(pl.lats, 0.99),
	}
	if pl.elapsed > 0 {
		pt.ReqsPerSec = float64(len(pl.lats)) / pl.elapsed.Seconds()
	}
	if len(pl.svcs) > 0 {
		pt.ServiceAvgUs = float64(svcSum.Nanoseconds()) / float64(len(pl.svcs)) / 1e3
		pt.ServiceP99Us = percentileUs(pl.svcs, 0.99)
	}
	return pt
}

// rate is a request count over the time its slices took.
type rate struct {
	reqs    int64
	elapsed time.Duration
}

func (r rate) perSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.reqs) / r.elapsed.Seconds()
}

func (r *rate) add(o rate) {
	r.reqs += o.reqs
	r.elapsed += o.elapsed
}

// median returns the median of xs, which it sorts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// run calls op, which serves cols requests, back to back on every one of
// sessions at once for d.
func (r *rate) run(d time.Duration, cols int, sessions []*parallel.Session, op func(s *parallel.Session) error) error {
	calls := make([]int64, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				if errs[i] = op(s); errs[i] != nil {
					return
				}
				calls[i]++
			}
		}()
	}
	wg.Wait()
	r.elapsed += time.Since(start)
	for _, c := range calls {
		r.reqs += c * int64(cols)
	}
	return errors.Join(errs...)
}

func bitsIdentical(a, b []float64) bool {
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

func runServingBench(out, check string, window time.Duration) {
	const (
		q = 3
		b = 4
	)
	part, err := partition.NewSpherical(q)
	if err != nil {
		fatal(err)
	}
	n := part.M * b
	rng := rand.New(rand.NewSource(2026))
	a := tensor.Random(n, rng)
	opts := withBackend(parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
	blocks, err := parallel.PackRankBlocks(a, part, b)
	if err != nil {
		fatal(err)
	}
	opts.Blocks = blocks

	rep := servingReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Config:     parallelConfig{Q: q, P: part.P, M: part.M, B: b, N: n},
		WindowMs:   float64(window.Nanoseconds()) / 1e6,
	}
	fmt.Printf("sttsvbench -serve: q=%d (P=%d, m=%d), b=%d, n=%d, %s window per point\n",
		q, part.P, part.M, b, n, window)

	// Request vectors (16 distinct tenant workloads) and their
	// solo-session reference results — the bit-identity oracle. The solo
	// sessions stay open: they serve the serial and direct-batch slices,
	// as many at once as the point's pool has sessions.
	const distinct = 16
	xs := make([][]float64, distinct)
	wants := make([][]float64, distinct)
	solos := make([]*parallel.Session, 2)
	for i := range solos {
		if solos[i], err = parallel.OpenSession(a, opts); err != nil {
			fatal(err)
		}
		defer solos[i].Close()
	}
	for i := range xs {
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		res, err := solos[0].Apply(xs[i])
		if err != nil {
			fatal(err)
		}
		wants[i] = append([]float64(nil), res.Y...)
	}

	points := []struct {
		clients, sessions, maxCols int
		maxWait                    time.Duration
		queueCap                   int
		gate                       string
	}{
		{8, 1, 8, 2 * time.Millisecond, 0, "throughput"},
		{8, 2, 8, 2 * time.Millisecond, 0, "latency"},
		{64, 2, 8, 2 * time.Millisecond, 0, "throughput64"},
		{64, 2, 4, 500 * time.Microsecond, 0, ""},
		{256, 2, 8, time.Millisecond, 512, ""},
	}
	slice := window / servingSlices
	for _, pc := range points {
		pool, err := serve.Open(a, serve.Options{
			Session:  opts,
			Sessions: pc.sessions,
			MaxCols:  pc.maxCols,
			MaxWait:  pc.maxWait,
			QueueCap: pc.queueCap,
		})
		if err != nil {
			fatal(err)
		}
		// Prime: one request through the pool warms every session's
		// staging before the timed slices open.
		if _, err := pool.Apply("prime", xs[0]); err != nil {
			fatal(err)
		}
		batch := xs[:pc.maxCols]
		for _, solo := range solos { // presize the solo arenas
			if _, err := solo.ApplyBatch(batch); err != nil {
				fatal(err)
			}
		}
		load := &poolLoad{pool: pool, clients: pc.clients, xs: xs, wants: wants}
		var serial, direct rate
		var vsSerial, vsBatch []float64 // per-round ratios
		refs := check == "" || pc.gate == "throughput" || pc.gate == "throughput64"
		next := 0
		for i := 0; i < servingSlices && err == nil; i++ {
			var pr, b, s rate
			poolSlice := func() error {
				reqs, elapsed := len(load.lats), load.elapsed
				if err := load.slice(slice); err != nil {
					return fmt.Errorf("point clients=%d: %w", pc.clients, err)
				}
				pr = rate{int64(len(load.lats) - reqs), load.elapsed - elapsed}
				return nil
			}
			if !refs {
				err = poolSlice()
				continue
			}
			directSlice := func() error {
				return b.run(slice, pc.maxCols, solos[:pc.sessions], func(s *parallel.Session) error {
					_, err := s.ApplyBatch(batch)
					return err
				})
			}
			// The serial slice opens each round, and the pool and the
			// direct batch swap places every round: whichever slice follows
			// the serial one runs slower.
			order := []func() error{poolSlice, directSlice}
			if i%2 == 1 {
				order[0], order[1] = directSlice, poolSlice
			}
			err = s.run(slice, 1, solos[:1], func(s *parallel.Session) error {
				_, err := s.Apply(xs[next%distinct])
				next++
				return err
			})
			for _, run := range order {
				if err == nil {
					err = run()
				}
			}
			vsBatch = append(vsBatch, pr.perSec()/b.perSec())
			vsSerial = append(vsSerial, pr.perSec()/s.perSec())
			direct.add(b)
			serial.add(s)
		}
		if err != nil {
			pool.Close()
			fatal(err)
		}
		m := pool.Metrics()
		if err := pool.Close(); err != nil {
			fatal(err)
		}
		pt := load.point()
		pt.Sessions = pc.sessions
		pt.MaxCols = pc.maxCols
		pt.MaxWaitUs = float64(pc.maxWait.Nanoseconds()) / 1e3
		pt.QueueCap = pc.queueCap
		if pt.QueueCap == 0 {
			pt.QueueCap = 4 * pc.sessions * pc.maxCols
		}
		pt.Gate = pc.gate
		pt.Batches = m.Batches
		pt.AvgOccupancy = m.AvgOccupancy
		pt.SizeFlushes = m.SizeFlushes
		pt.WaitFlushes = m.WaitFlushes
		pt.SerialReqsPerSec = serial.perSec()
		pt.BatchReqsPerSec = direct.perSec()
		pt.SpeedupVsSerial = median(vsSerial)
		pt.BatchEfficiency = median(vsBatch)
		rep.Points = append(rep.Points, pt)
		fmt.Printf("  %3d clients, %d sess, ≤%d cols/%v: %8.1f req/s", pc.clients, pc.sessions, pc.maxCols, pc.maxWait, pt.ReqsPerSec)
		if refs {
			fmt.Printf("  %5.2fx serial  %4.2f of batch", pt.SpeedupVsSerial, pt.BatchEfficiency)
		}
		fmt.Printf("  occ %.2f  p50 %6.0fµs  p99 %7.0fµs  (%d rejected)\n", pt.AvgOccupancy, pt.P50Us, pt.P99Us, pt.Rejected)
	}

	if check != "" {
		checkServingRegression(check, &rep)
		return
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// checkServingRegression enforces the serving gates on a fresh
// measurement against the committed baseline. All thresholds are
// same-host ratios (the pool against references measured in alternating
// slices of the same window), so the gates transfer across runner
// hardware.
func checkServingRegression(path string, rep *servingReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("check baseline: %w", err))
	}
	var base servingReport
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("check baseline %s: %w", path, err))
	}
	baseEff := make(map[string]float64)
	for _, pt := range base.Points {
		if pt.Gate != "" {
			baseEff[pt.Gate] = pt.BatchEfficiency
		}
	}
	const (
		minSpeedup   = 3.0  // batched ≥3× serial
		effSlack     = 0.9  // batch efficiency ≥0.9× the committed baseline
		minOccupancy = 0.75 // mean batch ≥0.75×MaxCols columns
		latencySlack = 1.5  // p99 ≤ 1.5 × (MaxWait + p99 service)
	)
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sttsvbench: "+format+"\n", args...)
		failed = true
	}
	for _, pt := range rep.Points {
		switch pt.Gate {
		case "throughput", "throughput64":
			occFloor := minOccupancy * float64(pt.MaxCols)
			fmt.Printf("check %-13s %3d clients: %.2fx serial (floor %.2fx), occupancy %.2f (floor %.2f), %.3f of batch (floor %.3f)\n",
				pt.Gate, pt.Clients, pt.SpeedupVsSerial, minSpeedup, pt.AvgOccupancy, occFloor, pt.BatchEfficiency, effSlack*baseEff[pt.Gate])
			if pt.SpeedupVsSerial < minSpeedup {
				fail("gate %s: batched throughput %.2fx serial, below floor %.2fx", pt.Gate, pt.SpeedupVsSerial, minSpeedup)
			}
			if pt.AvgOccupancy < occFloor {
				fail("gate %s: mean batch occupancy %.2f, below floor %.2f", pt.Gate, pt.AvgOccupancy, occFloor)
			}
			if floor := effSlack * baseEff[pt.Gate]; floor <= 0 {
				fail("gate %s: baseline %s records no batch efficiency", pt.Gate, path)
			} else if pt.BatchEfficiency < floor {
				fail("gate %s: pool delivers %.3f of the direct batch rate, below floor %.3f", pt.Gate, pt.BatchEfficiency, floor)
			}
		case "latency":
			bound := latencySlack * (pt.MaxWaitUs + pt.ServiceP99Us)
			fmt.Printf("check %-13s %3d clients: p99 %.0fµs, bound %.0fµs (MaxWait %.0fµs + service p99 %.0fµs, ×%.1f)\n",
				pt.Gate, pt.Clients, pt.P99Us, bound, pt.MaxWaitUs, pt.ServiceP99Us, latencySlack)
			if pt.P99Us > bound {
				fail("gate latency: p99 %.0fµs exceeds MaxWait+service bound %.0fµs", pt.P99Us, bound)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("check: ok")
}
