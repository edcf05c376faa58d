package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

func TestSequenceBaselineCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, c := range []struct{ n, p int }{{20, 4}, {15, 15}, {9, 1}} {
		a := tensor.Random(c.n, rng)
		x := randVec(c.n, rng)
		want := sttsv.Packed(a, x, nil)
		res, err := RunSequenceBaseline(a, x, c.p, machine.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Y, want); d > 1e-9 {
			t.Fatalf("n=%d P=%d: sequence baseline differs by %g", c.n, c.p, d)
		}
	}
}

func TestSequenceBaselineCommIsAllGatherOnly(t *testing.T) {
	// The approach communicates only x: each processor sends its chunk to
	// P−1 peers, (P−1)·n/P ≈ n words — no y exchange.
	rng := rand.New(rand.NewSource(71))
	n, p := 40, 8
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	res, err := RunSequenceBaseline(a, x, p, machine.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64((p - 1) * (n / p))
	for r := 0; r < p; r++ {
		if res.Report.SentWords[r] != want {
			t.Fatalf("rank %d sent %d words, want %d", r, res.Report.SentWords[r], want)
		}
	}
	// Ω(n) regardless of P: compare against Algorithm 5's Θ(n/P^{1/3}).
	if res.Report.MaxSentWords() < int64(n)/2 {
		t.Fatalf("sequence baseline moved only %d words for n=%d", res.Report.MaxSentWords(), n)
	}
}

func TestSequenceBaselineValidation(t *testing.T) {
	a := tensor.NewSymmetric(4)
	x := make([]float64, 4)
	if _, err := RunSequenceBaseline(nil, x, 2, machine.RunConfig{}); err == nil {
		t.Error("nil tensor accepted")
	}
	if _, err := RunSequenceBaseline(a, x[:3], 2, machine.RunConfig{}); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := RunSequenceBaseline(a, x, 5, machine.RunConfig{}); err == nil {
		t.Error("P > n accepted")
	}
}
