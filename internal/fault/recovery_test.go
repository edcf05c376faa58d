package fault_test

// The chaos-recovery suite: for a grid of seeded crash schedules ×
// wirings × partition sizes, a session opened with Options.Recovery must
// absorb rank deaths mid-run — retire the machine, relaunch it one epoch
// later, roll every rank back to the last checkpoint, and replay — and
// still reproduce the crash-free session bit-identically: same Y bits,
// same per-phase meters, same logical per-rank communication counts. All
// recovery work is visible only on the wire meters, in RecoveryStats,
// and in the obs trace markers.

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// recoveryPlans are the seeded crash schedules of the acceptance grid:
// an early mid-operation crash, a late crash (second or third Apply,
// depending on machine size), a multi-rank crash, and a crash layered
// over packet loss (so recovery interleaves with retransmission).
var recoveryPlans = []fault.Plan{
	{Seed: 1, Crash: map[int]int{1: 4}},
	{Seed: 2, Crash: map[int]int{2: 60}},
	{Seed: 3, Crash: map[int]int{0: 10, 3: 25}},
	{Seed: 4, Drop: 0.05, Crash: map[int]int{1: 8}},
}

// recoverySetup builds a small deterministic problem for partition
// parameter q plus three distinct input vectors.
func recoverySetup(t *testing.T, q int) (*partition.Tetrahedral, *tensor.Symmetric, [][]float64, int) {
	t.Helper()
	part, err := partition.NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	const b = 2
	n := part.M * b
	rng := newRng(int64(1000 + q))
	a := tensor.Random(n, rng)
	xs := make([][]float64, 3)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
	}
	return part, a, xs, b
}

// sessionOutcome is everything the suite compares between a crash-free
// and a recovering session.
type sessionOutcome struct {
	ys      [][]float64
	phases  [][]parallel.PhaseMeter
	reports []*machine.Report
	final   *machine.Report
	stats   parallel.RecoveryStats
}

// runSession applies each vector through one resident session and
// collects per-operation results plus the session-lifetime report.
func runSession(t *testing.T, opts parallel.Options, a *tensor.Symmetric, xs [][]float64) *sessionOutcome {
	t.Helper()
	s, err := parallel.OpenSession(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := &sessionOutcome{}
	for _, x := range xs {
		res, err := s.Apply(x)
		if err != nil {
			s.Close()
			t.Fatalf("Apply: %v", err)
		}
		out.ys = append(out.ys, res.Y)
		out.phases = append(out.phases, res.Phases)
		out.reports = append(out.reports, res.Report)
	}
	out.stats = s.RecoveryStats()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	out.final = s.Report()
	return out
}

// TestChaosRecoverySession is the tentpole acceptance check: under every
// seeded crash plan, both wirings, q ∈ {2, 3}, a recovering session
// reproduces the crash-free session bit-for-bit with unchanged logical
// meters, and the supervisor's interventions appear in RecoveryStats. The
// reliable transport takes every plan; the direct transport, which cannot
// repair packet loss, takes the crash-only plans ("direct/…" subtests), so
// both transports run under the same relaunch protocol. Sending no acks,
// the direct transport makes fewer deliveries, so a late crash can fall
// past a rank's last one (seed 2 at q=2); such a run checks that the armed
// supervisor stays out of the way.
func TestChaosRecoverySession(t *testing.T) {
	for _, q := range []int{2, 3} {
		part, a, xs, b := recoverySetup(t, q)
		for _, wiring := range []parallel.Wiring{parallel.WiringP2P, parallel.WiringAllToAll} {
			name := "p2p"
			if wiring == parallel.WiringAllToAll {
				name = "alltoall"
			}
			t.Run(name+"/q="+string(rune('0'+q)), func(t *testing.T) {
				want := runSession(t, parallel.Options{Part: part, B: b, Wiring: wiring}, a, xs)
				recovering := func(t *testing.T, tf machine.TransportFactory) (*sessionOutcome, *obs.Trace) {
					var rec obs.Recorder
					got := runSession(t, parallel.Options{
						Part: part, B: b, Wiring: wiring,
						Machine: machine.RunConfig{
							Transport: tf,
							Timeout:   2 * time.Second,
							Observer:  rec.Observer(),
						},
						Recovery: &parallel.RecoveryOptions{},
					}, a, xs)
					return got, rec.Trace()
				}
				for _, plan := range recoveryPlans {
					plan := plan
					t.Run(plan.String(), func(t *testing.T) {
						got, trace := recovering(t, fault.Transport(plan, fault.ReliableOptions{MaxAttempts: 1 << 20}))
						assertRecovered(t, want, got, trace, true)
					})
				}
				for _, plan := range recoveryPlans {
					packetFaults := plan
					packetFaults.Crash = nil
					if packetFaults.Active() {
						continue // lost packets need the reliable transport
					}
					plan := plan
					t.Run("direct/"+plan.String(), func(t *testing.T) {
						var fired atomic.Bool
						got, trace := recovering(t, crashSpy(fault.Unreliable(plan), &fired))
						assertRecovered(t, want, got, trace, fired.Load())
					})
				}
			})
		}
	}
}

// crashSpy wraps tf's transports to record, in fired, whether any of
// them died of a scheduled crash.
func crashSpy(tf machine.TransportFactory, fired *atomic.Bool) machine.TransportFactory {
	return func(w machine.Wire) machine.Transport { return spiedTransport{tf(w), fired} }
}

// spiedTransport notes a machine.CrashError passing through Send, the
// only direct-transport call that delivers a packet, and rethrows it.
type spiedTransport struct {
	machine.Transport
	fired *atomic.Bool
}

func (s spiedTransport) Send(to, tag int, data []float64) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.CrashError); ok {
				s.fired.Store(true)
			}
			panic(r)
		}
	}()
	s.Transport.Send(to, tag, data)
}

// assertRecovered checks a recovering session against the crash-free one:
// bit-identical Y, identical per-phase and logical meters per operation
// and over the session lifetime, evidence of the supervisor's work in
// RecoveryStats (none when no crash fired), and an epoch-aware committed
// trace matching the report.
func assertRecovered(t *testing.T, want, got *sessionOutcome, trace *obs.Trace, crashed bool) {
	t.Helper()
	for k := range want.ys {
		for i := range want.ys[k] {
			if got.ys[k][i] != want.ys[k][i] {
				t.Fatalf("apply %d: Y[%d] = %g differs from crash-free %g",
					k, i, got.ys[k][i], want.ys[k][i])
			}
		}
		if !reflect.DeepEqual(got.phases[k], want.phases[k]) {
			t.Errorf("apply %d: per-phase meters differ from crash-free session", k)
		}
		assertSameLogicalMeters(t, want.reports[k], got.reports[k])
	}
	// Session-lifetime wire meters carry the recovery traffic; logical
	// meters stay those of committed work.
	assertSameLogicalMeters(t, want.final, got.final)
	if gotW, wantW := got.final.TotalWireSentWords(), got.final.TotalSentWords(); gotW < wantW {
		t.Errorf("lifetime wire words %d below logical words %d", gotW, wantW)
	}
	if !crashed {
		if got.stats.RankDowns != 0 || got.stats.Rollbacks != 0 {
			t.Errorf("no crash fired, yet RecoveryStats = %+v", got.stats)
		}
	} else {
		if got.stats.RankDowns < 1 {
			t.Errorf("RecoveryStats.RankDowns = %d, want ≥ 1", got.stats.RankDowns)
		}
		if got.stats.Rollbacks < 1 {
			t.Errorf("RecoveryStats.Rollbacks = %d, want ≥ 1", got.stats.Rollbacks)
		}
		if got.stats.Retries < 1 {
			t.Errorf("RecoveryStats.Retries = %d, want ≥ 1", got.stats.Retries)
		}
	}
	if got.stats.Verifications < got.stats.Rollbacks {
		t.Errorf("RecoveryStats.Verifications = %d below Rollbacks = %d: every restore must verify",
			got.stats.Verifications, got.stats.Rollbacks)
	}
	if got.stats.Mismatches != 0 {
		t.Errorf("RecoveryStats.Mismatches = %d on uncorrupted restores", got.stats.Mismatches)
	}
	// Epoch-aware trace conformance: with the aborted attempts cut away at
	// the per-rank rollback markers, the committed logical trace must equal
	// the session-lifetime report exactly.
	if err := trace.CheckAgainstReport(got.final); err != nil {
		t.Errorf("committed trace conformance: %v", err)
	}
}

// TestChaosRecoveryPowerMethod: a crash mid power-method must replay the
// interrupted iteration and converge to the crash-free result exactly —
// same λ, same eigenvector bits, same iteration count.
func TestChaosRecoveryPowerMethod(t *testing.T) {
	part, a, _, b := recoverySetup(t, 2)
	po := parallel.PowerOptions{MaxIter: 6, Seed: 3}
	runPM := func(opts parallel.Options) (*parallel.EigenResult, parallel.RecoveryStats) {
		s, err := parallel.OpenSession(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.PowerMethod(po)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.RecoveryStats()
	}
	want, _ := runPM(parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P})
	got, stats := runPM(parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 5, Crash: map[int]int{2: 30}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout: 2 * time.Second,
		},
		Recovery: &parallel.RecoveryOptions{},
	})
	if got.Lambda != want.Lambda {
		t.Errorf("Lambda = %g, crash-free %g", got.Lambda, want.Lambda)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Errorf("exit (%d iters, converged=%v), crash-free (%d, %v)",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("X[%d] = %g differs from crash-free %g", i, got.X[i], want.X[i])
		}
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("per-phase meters differ from crash-free power method")
	}
	if stats.RankDowns < 1 || stats.Rollbacks < 1 {
		t.Errorf("stats %+v: expected at least one rank death and rollback", stats)
	}
}

// mttkrpPlans are the dedicated crash schedules for the MTTKRP grid: an
// early single-rank crash inside the batched exchange, and a multi-rank
// crash layered over packet loss.
var mttkrpPlans = []fault.Plan{
	{Seed: 6, Crash: map[int]int{1: 5}},
	{Seed: 7, Drop: 0.05, Crash: map[int]int{0: 8, 3: 20}},
}

// TestChaosRecoveryMTTKRP: a crash mid-MTTKRP must replay the batched
// application and still reproduce the crash-free factor matrix
// bit-for-bit, with exactly-once logical meters — the x/y arenas are
// rebuilt from host staging on every attempt (dirtyNone), so the
// incremental checkpointer copies zero arena words here.
func TestChaosRecoveryMTTKRP(t *testing.T) {
	const rcols = 2
	for _, q := range []int{2, 3} {
		part, a, _, b := recoverySetup(t, q)
		n := part.M * b
		rng := newRng(int64(2000 + q))
		x := la.NewMatrix(n, rcols)
		for i := 0; i < n; i++ {
			for l := 0; l < rcols; l++ {
				x.Set(i, l, rng.NormFloat64())
			}
		}
		type mttkrpOutcome struct {
			y     *la.Matrix
			res   *parallel.Result
			final *machine.Report
			stats parallel.RecoveryStats
		}
		runM := func(t *testing.T, opts parallel.Options) *mttkrpOutcome {
			t.Helper()
			s, err := parallel.OpenSession(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			y, res, err := s.MTTKRP(x, 0)
			if err != nil {
				s.Close()
				t.Fatalf("MTTKRP: %v", err)
			}
			stats := s.RecoveryStats()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			return &mttkrpOutcome{y: y, res: res, final: s.Report(), stats: stats}
		}
		for _, wiring := range []parallel.Wiring{parallel.WiringP2P, parallel.WiringAllToAll} {
			name := "p2p"
			if wiring == parallel.WiringAllToAll {
				name = "alltoall"
			}
			t.Run(name+"/q="+string(rune('0'+q)), func(t *testing.T) {
				want := runM(t, parallel.Options{Part: part, B: b, Wiring: wiring})
				for _, plan := range mttkrpPlans {
					plan := plan
					t.Run(plan.String(), func(t *testing.T) {
						got := runM(t, parallel.Options{
							Part: part, B: b, Wiring: wiring,
							Machine: machine.RunConfig{
								Transport: fault.Transport(plan, fault.ReliableOptions{MaxAttempts: 1 << 20}),
								Timeout:   2 * time.Second,
							},
							Recovery: &parallel.RecoveryOptions{},
						})
						for i := range want.y.Data {
							if got.y.Data[i] != want.y.Data[i] {
								t.Fatalf("Y.Data[%d] = %g differs from crash-free %g",
									i, got.y.Data[i], want.y.Data[i])
							}
						}
						if !reflect.DeepEqual(got.res.Phases, want.res.Phases) {
							t.Errorf("per-phase meters differ from crash-free MTTKRP")
						}
						assertSameLogicalMeters(t, want.res.Report, got.res.Report)
						assertSameLogicalMeters(t, want.final, got.final)
						if got.stats.RankDowns < 1 || got.stats.Rollbacks < 1 {
							t.Errorf("stats %+v: expected at least one rank death and rollback", got.stats)
						}
						if got.stats.CheckpointWords != 0 {
							t.Errorf("CheckpointWords = %d: MTTKRP checkpoints must copy no arena words",
								got.stats.CheckpointWords)
						}
					})
				}
			})
		}
	}
}

// TestChaosRecoveryObservability: recovery must be visible in the obs
// layer — rank-down and recovery span markers in the trace, an epoch > 0
// after a relaunch, and a "recovery" scope record in the metrics export.
func TestChaosRecoveryObservability(t *testing.T) {
	part, a, xs, b := recoverySetup(t, 2)
	var rec obs.Recorder
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 1, Crash: map[int]int{1: 4}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout:  2 * time.Second,
			Observer: rec.Observer(),
		},
		Recovery: &parallel.RecoveryOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if _, err := s.Apply(x); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.RecoveryStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	tr := rec.Trace()
	rc := tr.RecoveryCounts()
	if rc.RankDowns < 1 || rc.Recoveries < 1 || rc.Rollbacks < 1 {
		t.Fatalf("trace recovery counts %+v: want every marker kind present", rc)
	}
	if rc.RankDowns != stats.RankDowns || rc.Rollbacks != stats.Rollbacks {
		t.Errorf("trace counts %+v disagree with RecoveryStats %+v", rc, stats)
	}
	if rc.MaxEpoch < 1 {
		t.Errorf("trace max epoch %d: a relaunch must advance the epoch", rc.MaxEpoch)
	}

	var buf bytes.Buffer
	if err := obs.WriteMetricsJSONL(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"scope":"recovery"`) {
		t.Errorf("metrics export missing the recovery record:\n%s", buf.String())
	}

	// The JSONL trace round-trips the recovery markers (kind names and
	// epochs survive).
	buf.Reset()
	if err := obs.WriteTraceJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rc2 := back.RecoveryCounts(); rc2 != rc {
		t.Errorf("recovery counts changed across JSONL round-trip: %+v vs %+v", rc2, rc)
	}
}

// TestRecoveryDegradedRelaunchThenCrash walks the budget edge: two
// crashes inside one Apply with MaxRetries = 1 spend the whole budget of
// MaxRetries+1 replays (each crash costs one relaunch), and a third rank
// then crashes on a later Apply, which the relaunched machine absorbs the
// same way. Each rank's fault.Decider persists across relaunches, so each
// rank's scheduled crash fires exactly once for the session lifetime, and
// the whole run stays bit-identical to crash-free. The crash clock counts
// a rank's deliveries over that lifetime, aborted attempts included: rank
// 3 has made 61–75 of them when Apply 0 commits and 36 more per Apply, so
// its crash at op 150 lands in Apply 2 or 3.
func TestRecoveryDegradedRelaunchThenCrash(t *testing.T) {
	part, a, _, b := recoverySetup(t, 2)
	n := part.M * b
	rng := newRng(77)
	xs := make([][]float64, 5)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
	}
	want := runSession(t, parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P}, a, xs)

	plan := fault.Plan{Seed: 11, Crash: map[int]int{1: 4, 2: 30, 3: 150}}
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(plan, fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout:   2 * time.Second,
		},
		Recovery: &parallel.RecoveryOptions{MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var afterFirst parallel.RecoveryStats
	for k, x := range xs {
		res, err := s.Apply(x)
		if err != nil {
			t.Fatalf("apply %d: %v", k, err)
		}
		for i := range want.ys[k] {
			if res.Y[i] != want.ys[k][i] {
				t.Fatalf("apply %d: Y[%d] = %g differs from crash-free %g", k, i, res.Y[i], want.ys[k][i])
			}
		}
		assertSameLogicalMeters(t, want.reports[k], res.Report)
		if k == 0 {
			afterFirst = s.RecoveryStats()
		}
	}
	stats := s.RecoveryStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameLogicalMeters(t, want.final, s.Report())

	// One protocol: every crash costs one relaunch, one replay, one
	// rollback, and one epoch.
	if afterFirst.RankDowns != 2 || afterFirst.Relaunches != 2 || afterFirst.Retries != 2 {
		t.Fatalf("first Apply: %d rank downs, %d relaunches, %d retries; want 2 of each (the whole budget of MaxRetries+1 replays)",
			afterFirst.RankDowns, afterFirst.Relaunches, afterFirst.Retries)
	}
	if stats.RankDowns != 3 || stats.Relaunches != 3 || stats.Retries != 3 || stats.Rollbacks != 3 {
		t.Errorf("session: %+v; want 3 rank downs, relaunches, retries and rollbacks", stats)
	}
	if stats.Epoch != 3 {
		t.Errorf("machine epoch %d after 3 relaunches, want 3", stats.Epoch)
	}
	if stats.Verifications != stats.Rollbacks || stats.Mismatches != 0 {
		t.Errorf("verification accounting off: %+v", stats)
	}
}

// crashingTransport wraps rank 1's transport with the test's fault: fire
// reports whether to crash on the current call of the overridden method.
type crashingTransport struct {
	machine.Transport
	onSend bool // crash in Send; otherwise in Wait
	fire   func() bool
}

func (t *crashingTransport) Send(to, tag int, data []float64) {
	if t.onSend && t.fire() {
		panic(machine.CrashError{Rank: 1})
	}
	t.Transport.Send(to, tag, data)
}

// Wait crashes the way a parked reliable transport does when an injected
// crash fires while it services a peer's retransmission: block is already
// running on a helper goroutine (here, the rank's op-channel receive) and
// outlives the dead rank.
func (t *crashingTransport) Wait(block func()) {
	if !t.onSend && t.fire() {
		go block()
		panic(machine.CrashError{Rank: 1})
	}
	t.Transport.Wait(block)
}

// crashRank1 builds a reliable-transport factory whose rank-1 transport
// crashes wherever ct says.
func crashRank1(ct crashingTransport) machine.TransportFactory {
	inner := fault.Transport(fault.Plan{}, fault.ReliableOptions{MaxAttempts: 1 << 20})
	return func(w machine.Wire) machine.Transport {
		t := inner(w)
		if w.Rank() != 1 {
			return t
		}
		c := ct
		c.Transport = t
		return &c
	}
}

// TestRecoveryCrashInsideHostWait: a crash inside rank 1's host park —
// right after its part of an Apply — leaves the park's helper goroutine
// blocked on the op channel, where it takes the next op meant for rank 1.
// The relaunch retires that channel with the machine, so every Apply stays
// bit-identical to crash-free and finishes far below the 20 s stall
// watchdog, which must not be what rescues it.
func TestRecoveryCrashInsideHostWait(t *testing.T) {
	part, a, xs, b := recoverySetup(t, 2)
	run := func(fireAt int64) (*sessionOutcome, int64, time.Duration) {
		var waits atomic.Int64
		ct := crashingTransport{fire: func() bool { return waits.Add(1) == fireAt }}
		s, err := parallel.OpenSession(a, parallel.Options{
			Part: part, B: b, Wiring: parallel.WiringP2P,
			Machine:  machine.RunConfig{Transport: crashRank1(ct), Timeout: 20 * time.Second},
			Recovery: &parallel.RecoveryOptions{},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := &sessionOutcome{}
		var slowest time.Duration
		for k, x := range xs {
			start := time.Now()
			res, err := s.Apply(x)
			if el := time.Since(start); el > slowest {
				slowest = el
			}
			if err != nil {
				s.Close()
				t.Fatalf("apply %d: %v", k, err)
			}
			out.ys = append(out.ys, res.Y)
			out.reports = append(out.reports, res.Report)
		}
		out.stats = s.RecoveryStats()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		out.final = s.Report()
		return out, waits.Load(), slowest
	}

	// Crash-free, rank 1 waits once in its first park, then once per
	// Apply in the park after it: the scheduled exchange has no barrier.
	want, total, _ := run(0)
	if total != 1+int64(len(xs)) {
		t.Fatalf("rank 1 made %d Wait calls over %d Applies, want one park before and one after each", total, len(xs))
	}

	got, _, slowest := run(2) // the park after the first Apply
	for k := range want.ys {
		for i := range want.ys[k] {
			if got.ys[k][i] != want.ys[k][i] {
				t.Fatalf("apply %d: Y[%d] = %g differs from crash-free %g", k, i, got.ys[k][i], want.ys[k][i])
			}
		}
		assertSameLogicalMeters(t, want.reports[k], got.reports[k])
	}
	assertSameLogicalMeters(t, want.final, got.final)
	if got.stats.RankDowns != 1 || got.stats.Relaunches != 1 {
		t.Errorf("stats %+v: want the one crash absorbed by one relaunch", got.stats)
	}
	if slowest > 5*time.Second {
		t.Errorf("slowest Apply took %v: the stall watchdog, not the relaunch, rescued the dispatch", slowest)
	}
}

// TestRecoveryBudgetExhausted: a rank that crashes on every incarnation
// defeats any budget. The dispatch fails after MaxRetries+1 replays with
// the crash as its cause, the session rolls back to its last committed
// state on a fresh machine (so no logical traffic is left behind), and
// Close returns promptly.
func TestRecoveryBudgetExhausted(t *testing.T) {
	part, a, xs, b := recoverySetup(t, 2)
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: crashRank1(crashingTransport{onSend: true, fire: func() bool { return true }}),
			Timeout:   2 * time.Second,
		},
		Recovery: &parallel.RecoveryOptions{MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(xs[0])
	var crash machine.CrashError
	if !errors.As(err, &crash) {
		s.Close()
		t.Fatalf("Apply under an unrecoverable crash returned %v, want a budget error wrapping the CrashError", err)
	}
	stats := s.RecoveryStats()
	if stats.Retries != 2 || stats.RankDowns != 3 {
		t.Errorf("stats %+v: want 2 replays (MaxRetries+1) after 3 crashes", stats)
	}
	if stats.Relaunches != 3 || stats.Rollbacks != 3 {
		t.Errorf("stats %+v: want 3 relaunches and rollbacks (2 replays + the final rollback)", stats)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close after an exhausted dispatch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after an exhausted dispatch")
	}
	if rep := s.Report(); rep.TotalSentWords() != 0 || rep.TotalWireSentWords() == 0 {
		t.Errorf("after a failed dispatch: %d logical words (want 0, nothing committed), %d wire words (want > 0)",
			rep.TotalSentWords(), rep.TotalWireSentWords())
	}
}

// TestRecoveryStatsStableAfterClose: RecoveryStats must stay readable and
// frozen after Close — the documented post-mortem use.
func TestRecoveryStatsStableAfterClose(t *testing.T) {
	part, a, xs, b := recoverySetup(t, 2)
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 1, Crash: map[int]int{1: 4}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout: 2 * time.Second,
		},
		Recovery: &parallel.RecoveryOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if _, err := s.Apply(x); err != nil {
			t.Fatal(err)
		}
	}
	before := s.RecoveryStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := s.RecoveryStats(); after != before {
		t.Errorf("RecoveryStats changed across Close:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := s.Close(); err != nil { // idempotent Close keeps them readable
		t.Fatal(err)
	}
	if again := s.RecoveryStats(); again != before {
		t.Errorf("RecoveryStats changed after second Close:\nbefore %+v\nafter  %+v", before, again)
	}
}

// TestRecoveryDisabledStaysFailFast pins the opt-in contract: without
// Options.Recovery a session surfaces a crash as a structured error
// exactly like a one-shot run (TestChaosCrash), never a silent retry.
func TestRecoveryDisabledStaysFailFast(t *testing.T) {
	part, a, xs, b := recoverySetup(t, 2)
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 1, Crash: map[int]int{1: 4}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(xs[0]); err == nil {
		t.Fatal("Apply succeeded under a crash plan with recovery disabled")
	}
}
