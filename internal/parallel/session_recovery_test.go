package parallel

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestSessionApplyConcurrentGuard: a Session is a single-host-goroutine
// engine; concurrent Apply misuse must surface as ErrSessionBusy, never
// as a data race on the staging arenas. Run under -race this test also
// proves the guard closes the race window.
func TestSessionApplyConcurrentGuard(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	rng := rand.New(rand.NewSource(41))
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

	const workers = 8
	var wg sync.WaitGroup
	var busy, applied atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := s.Apply(x)
				switch {
				case errors.Is(err, ErrSessionBusy):
					busy.Add(1)
				case err != nil:
					t.Errorf("concurrent Apply: %v", err)
				default:
					applied.Add(1)
					if !bitsEqual(res.Y, want.Y) {
						t.Error("concurrent Apply produced wrong bits")
					}
				}
			}
		}()
	}
	wg.Wait()
	if applied.Load() == 0 {
		t.Error("no Apply ever won the guard")
	}
	if busy.Load() == 0 {
		t.Error("no Apply was ever rejected; guard untested (raise workers)")
	}
}

// TestPowerMethodCapExit pins the MaxIter exit: an unconverged run
// reports exactly MaxIter iterations (not MaxIter+1) and Converged
// false.
func TestPowerMethodCapExit(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	rng := rand.New(rand.NewSource(42))
	a := tensor.Random(n, rng)
	res, err := RunPowerMethod(a,
		Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 3, Tol: 1e-300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want exactly MaxIter = 3", res.Iterations)
	}
	if res.Converged {
		t.Error("Converged = true on the MaxIter cap exit")
	}
	if res.Singular {
		t.Error("Singular = true on the MaxIter cap exit")
	}
}

// TestPowerMethodSingularExit pins the degenerate exit: the zero tensor
// annihilates every iterate, so the method must stop after the first
// iteration reporting Singular — and never Converged, which the seed
// implementation claimed.
func TestPowerMethodSingularExit(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	a := tensor.NewSymmetric(n) // identically zero
	res, err := RunPowerMethod(a,
		Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Singular {
		t.Error("Singular = false for the zero tensor")
	}
	if res.Converged {
		t.Error("Converged = true on the singular exit")
	}
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1 (first y vanishes)", res.Iterations)
	}
	if res.Lambda != 0 {
		t.Errorf("Lambda = %g, want 0", res.Lambda)
	}
}

// TestReplayedApplyReportsRecoveryTraffic: the Report of an Apply that a
// crash replayed carries the aborted attempt's wire traffic, as a
// replayed power method's does, while its logical meters stay those of a
// crash-free run.
func TestReplayedApplyReportsRecoveryTraffic(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 6
	n := part.M * b
	rng := rand.New(rand.NewSource(44))
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	want, err := Run(a, x, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenSession(a, Options{
		Part: part, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{
			Transport: fault.Transport(fault.Plan{Seed: 5, Crash: map[int]int{2: 30}},
				fault.ReliableOptions{MaxAttempts: 1 << 20}),
			Timeout: 2 * time.Second,
		},
		Recovery: &RecoveryOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.RecoveryStats(); st.Relaunches != 1 {
		t.Fatalf("%d relaunches, want the planned crash to replay the Apply once", st.Relaunches)
	}
	if !bitsEqual(got.Y, want.Y) {
		t.Error("replayed Apply's Y differs from the crash-free run")
	}
	for r := range want.Report.SentWords {
		if got.Report.SentWords[r] != want.Report.SentWords[r] || got.Report.RecvWords[r] != want.Report.RecvWords[r] ||
			got.Report.SentMsgs[r] != want.Report.SentMsgs[r] || got.Report.RecvMsgs[r] != want.Report.RecvMsgs[r] {
			t.Errorf("rank %d logical meters differ from the crash-free run", r)
		}
	}
	if w, l := got.Report.TotalWireSentWords(), got.Report.TotalSentWords(); w <= l {
		t.Errorf("replayed Apply reports %d wire words for %d logical words, want the aborted attempt's traffic on the wire", w, l)
	}
}
