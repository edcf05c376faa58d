package parallel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

const tol = 1e-9

func randVec(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func sphericalPart(t testing.TB, q int) *partition.Tetrahedral {
	t.Helper()
	part, err := partition.NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestAlg5CorrectBothWirings(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	part := sphericalPart(t, 2) // m=5, P=10, |Qi|=6
	for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
		for _, b := range []int{6, 12, 7} { // divisible and non-divisible chunking
			n := part.M * b
			a := tensor.Random(n, rng)
			x := randVec(n, rng)
			want := sttsv.Packed(a, x, nil)
			res, err := Run(a, x, Options{Part: part, B: b, Wiring: wiring})
			if err != nil {
				t.Fatalf("wiring=%v b=%d: %v", wiring, b, err)
			}
			if d := maxAbsDiff(res.Y, want); d > tol {
				t.Fatalf("wiring=%v b=%d: differs from sequential by %g", wiring, b, d)
			}
		}
	}
}

func TestAlg5CorrectWithPadding(t *testing.T) {
	// n not a multiple of m·b handled via zero padding.
	rng := rand.New(rand.NewSource(51))
	part := sphericalPart(t, 2)
	b := 6
	n := part.M*b - 4
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	want := sttsv.Packed(a, x, nil)
	for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
		res, err := Run(a, x, Options{Part: part, B: b, Wiring: wiring})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Y, want); d > tol {
			t.Fatalf("wiring=%v: padded run differs by %g", wiring, d)
		}
	}
}

func TestAlg5CorrectQ3(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	part := sphericalPart(t, 3) // m=10, P=30, |Qi|=12
	b := 12
	n := part.M * b // 120
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	want := sttsv.Packed(a, x, nil)
	res, err := Run(a, x, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Y, want); d > tol {
		t.Fatalf("q=3 run differs by %g", d)
	}
}

func TestAlg5CommMatchesTheoremExactly(t *testing.T) {
	// E1: with q²+1 | n and q(q+1) | b, every processor sends exactly
	// n(q+1)/(q²+1) − n/P words per vector with the P2P wiring — the
	// §7.2.2 value whose total matches the lower bound's leading term.
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1) * 2
		n := part.M * b
		x := make([]float64, n)
		res, err := Run(nil, x, Options{Part: part, B: b, Wiring: WiringP2P})
		if err != nil {
			t.Fatal(err)
		}
		perVector := int64(n*(q+1)/(q*q+1) - n/part.P)
		gather, scatter := res.Phase("gather"), res.Phase("reduce-scatter")
		if gather == nil || scatter == nil {
			t.Fatalf("q=%d: missing phase meters: %+v", q, res.Phases)
		}
		for r := 0; r < part.P; r++ {
			if gather.SentWords[r] != perVector {
				t.Fatalf("q=%d rank %d: gather sent %d, want %d", q, r, gather.SentWords[r], perVector)
			}
			if scatter.SentWords[r] != perVector {
				t.Fatalf("q=%d rank %d: scatter sent %d, want %d", q, r, scatter.SentWords[r], perVector)
			}
			if res.Report.RecvWords[r] != 2*perVector {
				t.Fatalf("q=%d rank %d: received %d, want %d", q, r, res.Report.RecvWords[r], 2*perVector)
			}
		}
		// Against the cost model.
		if got, want := float64(2*perVector), costmodel.OptimalWords(n, q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("q=%d: measured %g vs model %g", q, got, want)
		}
	}
}

func TestAlg5AllToAllCostsTwice(t *testing.T) {
	// E4: the All-to-All wiring sends 2·b/(q(q+1))·(P−1) words per vector
	// per processor = 2n/(q+1)·(1−1/P), twice the optimal leading term.
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1)
		n := part.M * b
		x := make([]float64, n)
		res, err := Run(nil, x, Options{Part: part, B: b, Wiring: WiringAllToAll})
		if err != nil {
			t.Fatal(err)
		}
		perVector := int64(2 * b / (q * (q + 1)) * (part.P - 1))
		gather, scatter := res.Phase("gather"), res.Phase("reduce-scatter")
		for r := 0; r < part.P; r++ {
			if gather.SentWords[r] != perVector {
				t.Fatalf("q=%d rank %d: gather sent %d, want %d", q, r, gather.SentWords[r], perVector)
			}
		}
		total := float64(gather.SentWords[0] + scatter.SentWords[0])
		if want := costmodel.AllToAllWords(n, q); math.Abs(total-want) > 1e-9 {
			t.Fatalf("q=%d: measured %g vs model %g", q, total, want)
		}
		// Ratio to the optimal wiring tends to 2 as q grows; the exact
		// finite-q value (ignoring the -n/P terms) is 2(q²+1)/(q+1)².
		ratio := costmodel.AllToAllWords(n, q) / costmodel.OptimalWords(n, q)
		approx := 2 * float64(q*q+1) / float64((q+1)*(q+1))
		if math.Abs(ratio-approx) > 0.2 {
			t.Fatalf("q=%d: all-to-all/optimal ratio %g, want ≈ %g", q, ratio, approx)
		}
	}
}

// sentMsg is one logical message a recordingTransport saw its rank send.
type sentMsg struct {
	to, tag int
	data    []float64
}

// recordingTransport is the direct transport keeping a copy of every
// message its rank sends in sent[rank], which only that rank writes.
type recordingTransport struct {
	machine.Transport
	rank int
	sent [][]sentMsg
}

func (t *recordingTransport) Send(to, tag int, data []float64) {
	t.sent[t.rank] = append(t.sent[t.rank], sentMsg{to, tag, append([]float64(nil), data...)})
	t.Transport.Send(to, tag, data)
}

// TestAllToAllPadsEveryPair checks the All-to-All wiring on the wire:
// in each phase of a 3-column ApplyBatch and a later Apply, every rank
// sends each peer exactly one message of exactly 2·maxChunk·cols words,
// whose words past the rank pair's shared chunks are all zero — also
// after a message with a longer payload left the same send buffer, and
// between ranks that share no row (q = 3).
func TestAllToAllPadsEveryPair(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		const b = 7 // chunks of 1 or 2 words at q=2, 0 or 1 at q=3
		n := part.M * b
		rng := rand.New(rand.NewSource(int64(90 + q)))
		a := tensor.Random(n, rng)
		maxChunk := 0
		for i := range part.Qi {
			maxChunk = max(maxChunk, (b+len(part.Qi[i])-1)/len(part.Qi[i]))
		}
		// chunk is owner's chunk width of row: p's gather message to t
		// carries p's chunks of the rows they share, its reduce-scatter
		// message t's chunks of them.
		chunk := func(owner, row int) int {
			lo, hi, _ := part.OwnedRange(owner, row, b)
			return hi - lo
		}
		sent := make([][]sentMsg, part.P)
		s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringAllToAll, MaxCols: 3,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Transport: func(w machine.Wire) machine.Transport {
				return &recordingTransport{Transport: machine.NewDirectTransport(w), rank: w.Rank(), sent: sent}
			}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, cols := range []int{3, 1} {
			for r := range sent {
				sent[r] = sent[r][:0]
			}
			X := make([][]float64, cols)
			for l := range X {
				X[l] = randVec(n, rng)
			}
			if _, err := s.ApplyBatch(X); err != nil {
				s.Close()
				t.Fatal(err)
			}
			nonzero := 0
			for p := 0; p < part.P; p++ {
				for phase, base := range [2]int{100, 200} {
					seen := make([]int, part.P)
					for _, m := range sent[p] {
						if m.tag < base || m.tag >= base+100 {
							continue
						}
						seen[m.to]++
						pay := 0
						for _, row := range part.Rp[p] {
							if slices.Contains(part.Qi[row], m.to) {
								if phase == 0 {
									pay += chunk(p, row)
								} else {
									pay += chunk(m.to, row)
								}
							}
						}
						if len(m.data) != 2*maxChunk*cols {
							t.Fatalf("q=%d cols=%d: rank %d sent %d words to %d under tag %d, want 2·%d·%d", q, cols, p, len(m.data), m.to, m.tag, maxChunk, cols)
						}
						for k, v := range m.data[pay*cols:] {
							if v != 0 {
								t.Fatalf("q=%d cols=%d: rank %d → %d tag %d: pad word %d of %d is %g", q, cols, p, m.to, m.tag, k, len(m.data)-pay*cols, v)
							}
						}
						for _, v := range m.data[:pay*cols] {
							if v != 0 {
								nonzero++
							}
						}
					}
					for to, k := range seen {
						want := 1
						if to == p {
							want = 0
						}
						if k != want {
							t.Errorf("q=%d cols=%d phase %d: rank %d sent %d messages to rank %d, want %d", q, cols, base, p, k, to, want)
						}
					}
				}
			}
			if nonzero == 0 {
				t.Fatalf("q=%d cols=%d: every payload word is zero; the pad check checks nothing", q, cols)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlg5StepCounts(t *testing.T) {
	part := sphericalPart(t, 3)
	b := 12
	n := part.M * b
	x := make([]float64, n)
	res, err := Run(nil, x, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	if want := 26; res.Steps != want { // q³/2+3q²/2−1 for q=3
		t.Fatalf("P2P steps = %d, want %d", res.Steps, want)
	}
	res2, err := Run(nil, x, Options{Part: part, B: b, Wiring: WiringAllToAll})
	if err != nil {
		t.Fatal(err)
	}
	if want := part.P - 1; res2.Steps != want {
		t.Fatalf("all-to-all steps = %d, want %d", res2.Steps, want)
	}
}

func TestAlg5MessageLatency(t *testing.T) {
	// With the P2P wiring a processor sends one message per schedule step
	// per phase: 2·(q³/2+3q²/2−1) messages.
	part := sphericalPart(t, 2)
	b := 6
	x := make([]float64, part.M*b)
	res, err := Run(nil, x, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 9) // q=2: 9 steps per phase
	for r := 0; r < part.P; r++ {
		if res.Report.SentMsgs[r] != want {
			t.Fatalf("rank %d sent %d messages, want %d", r, res.Report.SentMsgs[r], want)
		}
	}
}

func TestAlg5LoadBalance(t *testing.T) {
	// E2: per-processor ternary multiplications are bounded by the §7.1
	// bound and sum to the n²(n+1)/2 total of Algorithm 4.
	rng := rand.New(rand.NewSource(53))
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1)
		n := part.M * b
		a := tensor.Random(n, rng)
		x := randVec(n, rng)
		res, err := Run(a, x, Options{Part: part, B: b, Wiring: WiringP2P})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		bound := costmodel.TernaryPerProcessorBound(q, b)
		for r, tm := range res.Ternary {
			total += tm
			if tm > bound {
				t.Fatalf("q=%d rank %d: %d ternary mults > bound %d", q, r, tm, bound)
			}
		}
		if want := costmodel.TernaryTotal(n); total != want {
			t.Fatalf("q=%d: total ternary %d, want %d", q, total, want)
		}
		// Leading-term balance: max/P-th within 20% of n³/2P for these
		// parameters.
		var mx int64
		for _, tm := range res.Ternary {
			if tm > mx {
				mx = tm
			}
		}
		lead := costmodel.TernaryLeading(n, part.P)
		if r := float64(mx) / lead; r > 1.6 {
			t.Fatalf("q=%d: max/leading = %g", q, r)
		}
	}
}

func TestAlg5ConservationAndTotals(t *testing.T) {
	part := sphericalPart(t, 2)
	b := 6
	x := make([]float64, part.M*b)
	for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
		res, err := Run(nil, x, Options{Part: part, B: b, Wiring: wiring})
		if err != nil {
			t.Fatal(err)
		}
		var sent, recv int64
		for r := 0; r < part.P; r++ {
			sent += res.Report.SentWords[r]
			recv += res.Report.RecvWords[r]
		}
		if sent != recv {
			t.Fatalf("wiring=%v: sent %d != recv %d", wiring, sent, recv)
		}
	}
}

func TestRowBaselineCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, c := range []struct{ n, p int }{{30, 5}, {30, 30}, {17, 4}, {8, 1}} {
		a := tensor.Random(c.n, rng)
		x := randVec(c.n, rng)
		want := sttsv.Packed(a, x, nil)
		res, err := RunRowBaseline(a, x, c.p, machine.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Y, want); d > tol {
			t.Fatalf("n=%d P=%d: baseline differs by %g", c.n, c.p, d)
		}
	}
}

func TestRowBaselineCommIsThetaN(t *testing.T) {
	// E6: baseline sends ≈ 2n(1−1/P) words per processor; Algorithm 5
	// beats it by ≈ P^{1/3}.
	rng := rand.New(rand.NewSource(55))
	q := 3
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b // 120
	a := tensor.Random(n, rng)
	x := randVec(n, rng)

	base, err := RunRowBaseline(a, x, part.P, machine.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(a, x, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	baseWords := float64(base.Report.MaxSentWords())
	optWords := float64(opt.Report.MaxSentWords())
	if model := costmodel.RowPartitionWords(n, part.P); math.Abs(baseWords-model) > 0.05*model {
		t.Fatalf("baseline words %g vs model %g", baseWords, model)
	}
	ratio := baseWords / optWords
	cbrtP := math.Cbrt(float64(part.P))
	if ratio < 0.6*cbrtP || ratio > 1.8*cbrtP {
		t.Fatalf("baseline/optimal = %g, want ≈ P^(1/3) = %g", ratio, cbrtP)
	}
}

func TestRowBaselineTernaryTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	n, p := 24, 6
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	res, err := RunRowBaseline(a, x, p, machine.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, tm := range res.Ternary {
		total += tm
	}
	if want := costmodel.TernaryTotal(n); total != want {
		t.Fatalf("ternary total %d, want %d", total, want)
	}
}

func TestRunValidation(t *testing.T) {
	part := sphericalPart(t, 2)
	x := make([]float64, part.M*6)
	if _, err := Run(nil, x, Options{Part: nil, B: 6}); err == nil {
		t.Error("nil partition accepted")
	}
	if _, err := Run(nil, x, Options{Part: part, B: 0}); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := Run(nil, make([]float64, part.M*6+1), Options{Part: part, B: 6}); err == nil {
		t.Error("oversized vector accepted")
	}
	a := tensor.NewSymmetric(10)
	if _, err := Run(a, x, Options{Part: part, B: 6}); err == nil {
		t.Error("mismatched tensor accepted")
	}
	if _, err := RunRowBaseline(nil, x, 3, machine.RunConfig{}); err == nil {
		t.Error("nil tensor baseline accepted")
	}
	if _, err := RunRowBaseline(tensor.NewSymmetric(4), make([]float64, 4), 9, machine.RunConfig{}); err == nil {
		t.Error("P > n baseline accepted")
	}
}

// TestAlg5OnEverySystem sweeps each Steiner system family the repo
// builds partitions from — spherical q=2,3,4, SQS(8) and the doubled
// SQS(16) — through the structural validators (triple coverage, block
// ownership and counting lemmas, schedule executability and
// completeness), then checks Algorithm 5 end to end at b=4 against the
// sequential Algorithm 4 kernel on the machine each system defines.
func TestAlg5OnEverySystem(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  func() (*steiner.System, error)
	}{
		{"spherical-q2", func() (*steiner.System, error) { return steiner.Spherical(2) }},
		{"spherical-q3", func() (*steiner.System, error) { return steiner.Spherical(3) }},
		{"spherical-q4", func() (*steiner.System, error) { return steiner.Spherical(4) }},
		{"SQS8", func() (*steiner.System, error) { return steiner.SQS8(), nil }},
		{"SQS16", func() (*steiner.System, error) { return steiner.SQSDoubled(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.sys()
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Verify(); err != nil {
				t.Fatalf("steiner %s: %v", sys, err)
			}
			part, err := partition.New(sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.Validate(); err != nil {
				t.Fatalf("partition P=%d: %v", part.P, err)
			}
			sched, err := schedule.Build(part)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.Validate(part); err != nil {
				t.Fatalf("schedule P=%d: %v", part.P, err)
			}

			b := 4
			n := part.M * b
			rng := rand.New(rand.NewSource(1))
			a := tensor.Random(n, rng)
			x := randVec(n, rng)
			want := sttsv.Packed(a, x, nil)
			res, err := Run(a, x, Options{Part: part, B: b, Wiring: WiringP2P})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(res.Y, want); d > tol {
				t.Fatalf("P=%d: differs from Algorithm 4 by %g", part.P, d)
			}
		})
	}
}

func BenchmarkAlg5Q2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	part := sphericalPart(b, 2)
	blockEdge := 12
	n := part.M * blockEdge
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(a, x, Options{Part: part, B: blockEdge, Wiring: WiringP2P}); err != nil {
			b.Fatal(err)
		}
	}
}
