package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/la"
	"repro/internal/machine"
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

// TestSessionApplyConformance is the session correctness bar: 50 Apply
// calls on one resident session must produce bit-identical Y, identical
// per-phase meters, and an identical per-operation report compared to 50
// independent Run calls — for both wirings and two partition sizes.
func TestSessionApplyConformance(t *testing.T) {
	for _, q := range []int{2, 3} {
		for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
			part := sphericalPart(t, q)
			b := 7 // non-divisible chunking exercises uneven segments
			n := part.M * b
			rng := rand.New(rand.NewSource(900 + int64(q)))
			a := tensor.Random(n, rng)
			opts := Options{Part: part, B: b, Wiring: wiring}

			s, err := OpenSession(a, opts)
			if err != nil {
				t.Fatalf("q=%d wiring=%v: open: %v", q, wiring, err)
			}
			for iter := 0; iter < 50; iter++ {
				x := randVec(n, rng)
				got, err := s.Apply(x)
				if err != nil {
					t.Fatalf("q=%d wiring=%v iter=%d: session apply: %v", q, wiring, iter, err)
				}
				want, err := Run(a, x, opts)
				if err != nil {
					t.Fatalf("q=%d wiring=%v iter=%d: run: %v", q, wiring, iter, err)
				}
				if !bitsEqual(got.Y, want.Y) {
					t.Fatalf("q=%d wiring=%v iter=%d: session Y not bit-identical to Run", q, wiring, iter)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Fatalf("q=%d wiring=%v iter=%d: phase meters differ:\nsession %+v\nrun     %+v",
						q, wiring, iter, got.Phases, want.Phases)
				}
				if !reflect.DeepEqual(got.Report, want.Report) {
					t.Fatalf("q=%d wiring=%v iter=%d: reports differ:\nsession %+v\nrun     %+v",
						q, wiring, iter, got.Report, want.Report)
				}
				if got.Steps != want.Steps {
					t.Fatalf("q=%d wiring=%v iter=%d: steps %d vs %d", q, wiring, iter, got.Steps, want.Steps)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("q=%d wiring=%v: close: %v", q, wiring, err)
			}
		}
	}
}

// TestExchangeResultDigests pins the output bits of one Apply per wiring
// and partition size, which the reduce-scatter's addition order decides:
// schedule step order for p2p, ascending peer order for the All-to-All.
// It runs on amd64 only, where Go does not fuse multiply-adds.
func TestExchangeResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64, where Go does not fuse multiply-adds (GOARCH=%s)", runtime.GOARCH)
	}
	for _, tc := range []struct {
		q      int
		wiring Wiring
		sum    string
	}{
		{2, WiringP2P, "9c3ae974fbeecbb4406f7be57c6ea2730f9e630f92686d65234e7f4e320ad2b7"},
		{2, WiringAllToAll, "01dd78e811beadf7db0a5744dc8eabae61df49d4ea072784bb4ef60733d7fa52"},
		{3, WiringP2P, "4e4fda906553f6ea816fc0d4cc741a13224cc4dd0a177a83cf9a15a3679533f7"},
		{3, WiringAllToAll, "d5e70074e1602cb7e48df101795cd80eb7ebc9fbcc273df02af328d933169b83"},
	} {
		part := sphericalPart(t, tc.q)
		const b = 7
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(950 + tc.q)))
		a := tensor.Random(n, rng)
		res, err := Run(a, randVec(n, rng), Options{Part: part, B: b, Wiring: tc.wiring})
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, v := range res.Y {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if sum := sha256.Sum256(buf); hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("q=%d %v: Y sha256 %x, want %s", tc.q, tc.wiring, sum, tc.sum)
		}
	}
}

// TestSessionBatchColumns: ApplyBatch column l must be bit-identical to
// Apply(X[l]), while the per-phase message count is that of a single
// application (the α amortization) and the words are cols× one column.
func TestSessionBatchColumns(t *testing.T) {
	for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
		part := sphericalPart(t, 2)
		b := 8
		n := part.M * b
		rng := rand.New(rand.NewSource(23))
		a := tensor.Random(n, rng)
		s, err := OpenSession(a, Options{Part: part, B: b, Wiring: wiring})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		const cols = 3
		X := make([][]float64, cols)
		for l := range X {
			X[l] = randVec(n, rng)
		}
		batch, err := s.ApplyBatch(X)
		if err != nil {
			t.Fatal(err)
		}
		single := make([]*Result, cols)
		for l := range X {
			if single[l], err = s.Apply(X[l]); err != nil {
				t.Fatal(err)
			}
		}
		for l := range X {
			if !bitsEqual(batch.Y[l], single[l].Y) {
				t.Fatalf("wiring=%v: batch column %d not bit-identical to single apply", wiring, l)
			}
		}
		// Amortization: same message count as ONE application, cols× words.
		bg := batch.Phases[0] // gather
		sg := single[0].Phases[0]
		for r := 0; r < part.P; r++ {
			if bg.SentMsgs[r] != sg.SentMsgs[r] {
				t.Fatalf("wiring=%v rank %d: batch gather msgs %d, single %d — batching must not add messages",
					wiring, r, bg.SentMsgs[r], sg.SentMsgs[r])
			}
			if bg.SentWords[r] != cols*sg.SentWords[r] {
				t.Fatalf("wiring=%v rank %d: batch gather words %d, want %d (cols×single)",
					wiring, r, bg.SentWords[r], cols*sg.SentWords[r])
			}
		}
	}
}

// TestBatchNonFiniteIsolation: columns carrying NaN and ±Inf entries must
// not leak into their batch siblings. Each trial poisons a random proper
// subset of a batch's columns with NaN, +Inf and −Inf at random entries;
// every output column must equal its solo Apply bit for bit, and the
// per-column meter shares must equal those of an all-finite batch of the
// same width.
func TestBatchNonFiniteIsolation(t *testing.T) {
	const cols, trials = 4, 6
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, q := range []int{2, 3} {
		for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
			part := sphericalPart(t, q)
			b := 4
			n := part.M * b
			rng := rand.New(rand.NewSource(int64(90 + q)))
			a := tensor.Random(n, rng)
			s, err := OpenSession(a, Options{Part: part, B: b, Wiring: wiring, MaxCols: cols})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			X := make([][]float64, cols)
			for l := range X {
				X[l] = randVec(n, rng)
			}
			ref, err := s.ApplyBatch(X)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Shares()
			for trial := 0; trial < trials; trial++ {
				for l := range X {
					X[l] = randVec(n, rng)
				}
				for _, l := range rng.Perm(cols)[:1+rng.Intn(cols-1)] {
					for _, v := range nonFinite {
						for k := 1 + rng.Intn(3); k > 0; k-- {
							X[l][rng.Intn(n)] = v
						}
					}
				}
				br, err := s.ApplyBatch(X)
				if err != nil {
					t.Fatal(err)
				}
				for l := range X {
					solo, err := s.Apply(X[l])
					if err != nil {
						t.Fatal(err)
					}
					if !bitsEqual(br.Y[l], solo.Y) {
						t.Fatalf("q=%d wiring=%v trial %d: batch column %d differs from its solo Apply", q, wiring, trial, l)
					}
				}
				if got := br.Shares(); !reflect.DeepEqual(got, want) {
					t.Fatalf("q=%d wiring=%v trial %d: shares %+v, all-finite batch %+v", q, wiring, trial, got, want)
				}
			}
		}
	}
}

// TestSessionMTTKRPMatchesRun: the session's batched MTTKRP must agree
// with the one-shot wrapper (which itself runs on a fresh session) to the
// bit, including growing the column capacity on demand.
func TestSessionMTTKRPMatchesRun(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	rng := rand.New(rand.NewSource(31))
	a := tensor.Random(n, rng)
	r := 4
	x := la.NewMatrix(n, r)
	for i := 0; i < n; i++ {
		for l := 0; l < r; l++ {
			x.Set(i, l, rng.NormFloat64())
		}
	}
	opts := Options{Part: part, B: b, Wiring: WiringP2P}
	s, err := OpenSession(a, opts) // MaxCols deliberately left at 1: exercises growth
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gotY, gotRes, err := s.MTTKRP(x, r)
	if err != nil {
		t.Fatal(err)
	}
	wantY, wantRes, err := RunMTTKRP(a, x, r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gotY.Data, wantY.Data) {
		t.Fatal("session MTTKRP not bit-identical to RunMTTKRP")
	}
	if !reflect.DeepEqual(gotRes.Phases, wantRes.Phases) {
		t.Fatalf("MTTKRP phase meters differ:\nsession %+v\nrun     %+v", gotRes.Phases, wantRes.Phases)
	}
}

// TestSessionPowerMethodMatchesRun: one resident session serving a power
// method op must reproduce the one-shot wrapper exactly, and a second
// invocation on the same warm session must reproduce it again.
func TestSessionPowerMethodMatchesRun(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	rng := rand.New(rand.NewSource(41))
	a := tensor.Random(n, rng)
	opts := Options{Part: part, B: b, Wiring: WiringP2P}
	po := PowerOptions{MaxIter: 30, Seed: 7}
	want, err := RunPowerMethod(a, opts, po)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 2; round++ {
		got, err := s.PowerMethod(po)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) {
			t.Fatalf("round %d: lambda %v vs %v", round, got.Lambda, want.Lambda)
		}
		if !bitsEqual(got.X, want.X) {
			t.Fatalf("round %d: eigenvector not bit-identical", round)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("round %d: iterations/converged %d/%v vs %d/%v",
				round, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		if !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Fatalf("round %d: phase meters differ", round)
		}
	}
}

// TestSessionPackUnpackZeroAlloc pins the zero-allocation property of the
// steady-state pack/unpack path: after one warm-up application, packing
// and unpacking every step of both phases allocates nothing.
func TestSessionPackUnpackZeroAlloc(t *testing.T) {
	part := sphericalPart(t, 3)
	b := 7
	n := part.M * b
	rng := rand.New(rand.NewSource(57))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply(randVec(n, rng)); err != nil { // warm-up
		t.Fatal(err)
	}
	rk := s.rk[0]
	allocs := testing.AllocsPerRun(100, func() {
		for si := range rk.lay.steps {
			st := &rk.lay.steps[si]
			if st.sendTo >= 0 {
				n := rk.pack(rk.sendBuf, rk.xA, st.gSend, 1)
				_ = rk.sendBuf[:n]
				rk.pack(rk.sendBuf, rk.yA, st.sSend, 1)
			}
			if st.recvFrom >= 0 {
				rk.unpackCopy(rk.recvBuf[:st.gRecvW], rk.xA, st.gRecv, 1)
				rk.unpackAdd(rk.recvBuf[:st.sRecvW], rk.yA, st.sRecv, 1)
			}
		}
		rk.stage(s.stageX, 1)
		rk.publish(s.stageY, 1)
		rk.zeroY()
	})
	if allocs != 0 {
		t.Fatalf("steady-state pack/unpack path allocates %.1f objects per application, want 0", allocs)
	}
}

// TestSessionApplySteadyStateAllocs bounds the whole warm Apply: total
// allocations must not scale with the schedule length — only the small
// constant host-side overhead (op dispatch, result assembly, meters)
// remains once the exchange path is warm. The q=4, b=24 session puts a
// whole phase's 3,740 messages in flight at once, 2,232 of them 2-word
// payloads of one size class, so a payload pool that drops buffers past a
// fixed count per class allocates per message there. A warm 8-column
// ApplyBatch must cost at most a few objects more than Apply (its extra
// result slices), so the ranks' local compute allocates nothing per
// column.
func TestSessionApplySteadyStateAllocs(t *testing.T) {
	const cols = 8
	for _, tc := range []struct{ q, b int }{{3, 6}, {4, 24}} {
		t.Run(fmt.Sprintf("q=%d,b=%d", tc.q, tc.b), func(t *testing.T) {
			part := sphericalPart(t, tc.q)
			n := part.M * tc.b
			rng := rand.New(rand.NewSource(58))
			a := tensor.Random(n, rng)
			s, err := OpenSession(a, Options{Part: part, B: tc.b, Wiring: WiringP2P, MaxCols: cols})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			x := randVec(n, rng)
			X := make([][]float64, cols)
			for l := range X {
				X[l] = randVec(n, rng)
			}
			for i := 0; i < 3; i++ { // warm-up
				if _, err := s.Apply(x); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ApplyBatch(X); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Apply(x); err != nil {
					t.Fatal(err)
				}
			})
			// The schedule has q³/2+3q²/2−1 steps (26 at q=3, 55 at q=4)
			// on P = 30 or 68 ranks; a per-message or per-step allocation
			// would push this into the thousands. The observed warm
			// overhead is host-side op dispatch, result assembly and
			// meters, all independent of schedule length.
			const budget = 700
			if allocs > budget {
				t.Fatalf("warm Session.Apply allocates %.0f objects, budget %d — steady-state path is allocating per step or per message", allocs, budget)
			}
			batchAllocs := testing.AllocsPerRun(20, func() {
				if _, err := s.ApplyBatch(X); err != nil {
					t.Fatal(err)
				}
			})
			// Per-rank per-column allocations would add cols·P = 240 or
			// 544 objects.
			const batchSlack = 32
			if batchAllocs > allocs+batchSlack {
				t.Fatalf("warm %d-column ApplyBatch allocates %.0f objects, Apply %.0f: more than %d extra — local compute is allocating per column",
					cols, batchAllocs, allocs, batchSlack)
			}
		})
	}
}

// BenchmarkSessionApply times one warm dense Apply at perfbench's apply
// shape (q=3, P=30, b=4), where the 2×26-step scheduled exchange rather
// than the kernel sets the cost; run it with -cpuprofile to profile the
// exchange.
func BenchmarkSessionApply(b *testing.B) {
	part := sphericalPart(b, 3)
	const blockEdge = 4
	n := part.M * blockEdge
	rng := rand.New(rand.NewSource(7))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: blockEdge, Wiring: WiringP2P})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	x := randVec(n, rng)
	if _, err := s.Apply(x); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionApplyScale times one warm dense Apply at b=2 on the
// q=5 (P=130) and q=9 (P=738) partitions, where a rank holds many
// senders' messages at once and the exchange's per-message costs show
// at scale: at q=9 an Apply moves about 716k messages. Opening each
// session, its first Apply and closing it stay outside the timer.
func BenchmarkSessionApplyScale(b *testing.B) {
	for _, q := range []int{5, 9} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			part := sphericalPart(b, q)
			const blockEdge = 2
			n := part.M * blockEdge
			rng := rand.New(rand.NewSource(7))
			a := tensor.Random(n, rng)
			s, err := OpenSession(a, Options{Part: part, B: blockEdge, Wiring: WiringP2P})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			x := randVec(n, rng)
			if _, err := s.Apply(x); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // before the deferred Close retires P ranks
		})
	}
}

// TestSessionClosedErrors: operations on a closed session fail cleanly.
func TestSessionClosedErrors(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	s, err := OpenSession(nil, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Apply(make([]float64, part.M*b)); err == nil {
		t.Fatal("Apply on closed session succeeded")
	}
	if _, err := s.PowerMethod(PowerOptions{}); err == nil {
		t.Fatal("PowerMethod on closed session succeeded")
	}
}

// TestSessionNilTensor: a tensor-free session still runs the full
// communication pattern (all blocks zero) — the pure-measurement mode.
func TestSessionNilTensor(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 5
	n := part.M * b
	s, err := OpenSession(nil, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Apply(make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Y {
		if v != 0 {
			t.Fatal("zero tensor produced nonzero output")
		}
	}
	if res.Report.TotalSentWords() == 0 {
		t.Fatal("communication pattern did not run")
	}
}

// TestSessionWatchdogIdle: an armed stall watchdog must tolerate a
// session sitting idle (ranks parked on the host queue) longer than the
// timeout window, then keep serving operations.
func TestSessionWatchdogIdle(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 5
	n := part.M * b
	s, err := OpenSession(nil, Options{
		Part: part, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, n)
	if _, err := s.Apply(x); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // idle well past the watchdog window
	if _, err := s.Apply(x); err != nil {
		t.Fatalf("apply after idle period: %v", err)
	}
}

// TestApplyBatchValidation: malformed batches — empty, ragged, oversized,
// or mis-sized against the tensor — must return a clean error before any
// host-op is dispatched (no deadlocked ranks, no staged state), and the
// session must remain immediately usable for well-formed operations.
func TestApplyBatchValidation(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 4
	n := part.M * b
	rng := rand.New(rand.NewSource(77))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := randVec(n, rng)
	want, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		X    [][]float64
	}{
		{"r=0 nil", nil},
		{"r=0 empty", [][]float64{}},
		{"empty column", [][]float64{{}}},
		{"nil column", [][]float64{x, nil}},
		{"ragged", [][]float64{x, x[:n-1]}},
		{"oversized", [][]float64{make([]float64, n+b)}},
		{"tensor mismatch", [][]float64{x[:n-b]}},
	}
	for _, tc := range bad {
		if _, err := s.ApplyBatch(tc.X); err == nil {
			t.Fatalf("%s: ApplyBatch accepted a malformed batch", tc.name)
		} else if errors.Is(err, ErrSessionBusy) {
			t.Fatalf("%s: validation error misreported as busy: %v", tc.name, err)
		}
		// The guard must reject before taking the in-flight slot: the very
		// next operation wins it and produces the usual bits.
		got, err := s.Apply(x)
		if err != nil {
			t.Fatalf("%s: session unusable after validation error: %v", tc.name, err)
		}
		if !bitsEqual(got.Y, want.Y) {
			t.Fatalf("%s: post-error Apply diverged", tc.name)
		}
	}
}

// TestBatchShares: the per-column demux of a batch's phase meters. Words
// and ternary multiplications scale exactly linearly with the column
// count, so a column's share equals a solo Apply; messages are paid once
// per step for the whole batch, so the share is the 1/cols split.
func TestBatchShares(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	rng := rand.New(rand.NewSource(78))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P, MaxCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := randVec(n, rng)
	solo, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	const cols = 4
	X := make([][]float64, cols)
	for l := range X {
		X[l] = x
	}
	br, err := s.ApplyBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	shares := br.Shares()
	if len(shares) != len(solo.Phases) {
		t.Fatalf("got %d shares, want %d phases", len(shares), len(solo.Phases))
	}
	for i, sh := range shares {
		pm := &solo.Phases[i]
		if sh.Label != pm.Label {
			t.Fatalf("share %d label %q, want %q", i, sh.Label, pm.Label)
		}
		var soloW, soloM, soloT int64
		for r := range pm.SentWords {
			soloW += pm.SentWords[r]
			soloM += pm.SentMsgs[r]
			soloT += pm.Ternary[r]
		}
		if sh.SentWords != soloW {
			t.Fatalf("phase %q: share words %d, solo words %d", sh.Label, sh.SentWords, soloW)
		}
		if sh.Ternary != soloT {
			t.Fatalf("phase %q: share ternary %d, solo %d", sh.Label, sh.Ternary, soloT)
		}
		if want := float64(soloM); soloM > 0 && sh.SentMsgs*cols != want*1 {
			// cols columns share the solo run's message count exactly.
			t.Fatalf("phase %q: share msgs %.3f × %d ≠ solo msgs %d", sh.Label, sh.SentMsgs, cols, soloM)
		}
	}
}
