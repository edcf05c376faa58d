package parallel

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// openRecovering opens a session with the crash-recovery supervisor armed
// on the default (fault-free) transport: checkpoints are taken at every
// dispatch boundary but no restore ever runs — the configuration that
// measures pure checkpoint overhead.
func openRecovering(t testing.TB, q, b int, seed int64) (*Session, []float64, *rand.Rand) {
	t.Helper()
	part := sphericalPart(t, q)
	n := part.M * b
	rng := rand.New(rand.NewSource(seed))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P, Recovery: &RecoveryOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	return s, randVec(n, rng), rng
}

// TestCheckpointSteadyStateZeroAlloc pins the checkpointer's allocation
// contract: once warm, the checkpoint path allocates nothing — not for
// the meter snapshot, not for the records.
func TestCheckpointSteadyStateZeroAlloc(t *testing.T) {
	s, x, _ := openRecovering(t, 3, 6, 61)
	defer s.Close()
	for i := 0; i < 3; i++ { // warm-up: session arenas
		if _, err := s.Apply(x); err != nil {
			t.Fatal(err)
		}
	}
	s.checkpoint(dirtyIterate)
	for _, dk := range []dirtyKind{dirtyNone, dirtyIterate} {
		dk := dk
		allocs := testing.AllocsPerRun(100, func() {
			s.checkpoint(dk)
		})
		if allocs != 0 {
			t.Errorf("warm checkpoint (dirtyKind %d) allocates %.1f objects per capture, want 0", dk, allocs)
		}
	}
}

// BenchmarkSessionCheckpoint times the checkpoint layer on a parked
// recovering session at perfbench power's shape (q = 2, b = 24): a warm
// dirtyIterate capture (every rank's meters, trace sequence and record)
// and a verified restore (every rank's record loaded and every page of
// its arena checked).
func BenchmarkSessionCheckpoint(b *testing.B) {
	s, _, _ := openRecovering(b, 2, 24, 64)
	defer s.Close()
	if _, err := s.PowerMethod(PowerOptions{MaxIter: 2, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.checkpoint(dirtyIterate)
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.restore(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCheckpointCostScalesWithDirty pins the O(dirty) contract from both
// sides: Apply-style operations checkpoint zero arena words however many
// times they run, while a power-method iteration checkpoints exactly the
// owned chunk spans — strictly less than the replicated arena footprint
// the old full-copy checkpointer moved.
func TestCheckpointCostScalesWithDirty(t *testing.T) {
	s, x, _ := openRecovering(t, 3, 7, 62)
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(x); err != nil {
			t.Fatal(err)
		}
	}
	if w := s.RecoveryStats().CheckpointWords; w != 0 {
		t.Fatalf("5 Applies checkpointed %d arena words, want 0 (dirtyNone)", w)
	}

	var owned, arena int
	for _, rk := range s.rk {
		arena += len(rk.chunk)
		for k := range rk.lay.rows {
			owned += rk.lay.myHi[k] - rk.lay.myLo[k]
		}
	}
	if owned <= 0 || owned >= arena {
		t.Fatalf("owned span total %d outside (0, arena %d): layout lost its replication", owned, arena)
	}
	res, err := s.PowerMethod(PowerOptions{MaxIter: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	words := s.RecoveryStats().CheckpointWords
	if words <= 0 {
		t.Fatal("power method checkpointed no arena words")
	}
	if words%int64(owned) != 0 {
		t.Errorf("CheckpointWords %d not a multiple of the owned span total %d", words, owned)
	}
	if n := words / int64(owned); n < int64(res.Iterations) {
		t.Errorf("%d dirty checkpoints for %d iterations", n, res.Iterations)
	}
	// A second Apply stream keeps the count flat again.
	before := s.RecoveryStats().CheckpointWords
	if _, err := s.Apply(x); err != nil {
		t.Fatal(err)
	}
	if after := s.RecoveryStats().CheckpointWords; after != before {
		t.Errorf("Apply after power method grew CheckpointWords %d → %d", before, after)
	}
}

// TestRestoreMismatchDetected injects corruption between a checkpoint and
// its restore: the fingerprint verification must identify the damaged
// rank and page in a structured RestoreMismatchError and count it in
// RecoveryStats, never hand corrupted state back to a replay.
func TestRestoreMismatchDetected(t *testing.T) {
	s, x, _ := openRecovering(t, 2, 4, 63)
	defer s.Close()
	if _, err := s.Apply(x); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PowerMethod(PowerOptions{MaxIter: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	s.checkpoint(dirtyIterate)
	const wantRank = 1
	// The record's last word is the last owned word of the rank's last
	// row, on the arena's last page: exercises the short-tail bounds.
	rk := s.rk[wantRank]
	last := len(rk.lay.rows) - 1
	pg := (last*rk.b + rk.lay.myHi[last] - 1) / checkpointPageWords
	if pg != rk.pages()-1 {
		t.Fatalf("last owned word on page %d of %d", pg, rk.pages())
	}
	rec := s.ck.recs[wantRank]
	rec[len(rec)-1] ^= 1 // flip a bit after the fingerprint was taken

	base := s.RecoveryStats()
	err := s.restore()
	var mm *RestoreMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("restore over a corrupted record returned %v, want *RestoreMismatchError", err)
	}
	if mm.Rank != wantRank || mm.Page != pg {
		t.Errorf("mismatch located at rank %d page %d, corruption was rank %d page %d",
			mm.Rank, mm.Page, wantRank, pg)
	}
	st := s.RecoveryStats()
	if st.Mismatches != base.Mismatches+1 {
		t.Errorf("Mismatches %d → %d, want +1", base.Mismatches, st.Mismatches)
	}
	if st.Verifications != base.Verifications+1 {
		t.Errorf("Verifications %d → %d, want +1", base.Verifications, st.Verifications)
	}
	if st.Rollbacks != base.Rollbacks {
		t.Errorf("Rollbacks %d → %d: a failed verification must not count as a completed rollback",
			base.Rollbacks, st.Rollbacks)
	}

	// The repaired record verifies again.
	rec[len(rec)-1] ^= 1
	if err := s.restore(); err != nil {
		t.Fatalf("restore after repair: %v", err)
	}
	if st := s.RecoveryStats(); st.Rollbacks != base.Rollbacks+1 {
		t.Errorf("repaired restore did not complete a rollback: %d → %d", base.Rollbacks, st.Rollbacks)
	}
}

// TestCheckpointRoundTrip: a rank's durable checkpoint record restores
// the exact state bits, and every damaged or misdirected record is
// rejected. A missing record, another rank's, another boundary's and a
// flipped header byte fail before anything is written; a flipped span
// word fails the page-fingerprint check a Session restore runs.
func TestCheckpointRoundTrip(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 12
	a := tensor.Random(part.M*b, rand.New(rand.NewSource(3)))
	engine := func(rank int) *RankEngine {
		e, err := NewRankEngine(a, Options{Part: part, B: b, Wiring: WiringP2P}, rank)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := engine(4)
	src.rk.pmLambda, src.rk.pmPrev = 1.25e-3, math.Inf(1)
	words := []float64{0, -1.5, math.Pi, 1e-300, math.Copysign(0, -1)}
	w := 0
	for k := range src.rk.lay.rows {
		for i := k*b + src.rk.lay.myLo[k]; i < k*b+src.rk.lay.myHi[k]; i++ {
			src.rk.chunk[i] = words[w%len(words)]
			w++
		}
	}
	if w < len(words) {
		t.Fatalf("rank 4 owns %d words, the test needs %d", w, len(words))
	}
	rec := src.Checkpoint(17)

	dst := engine(4)
	if err := dst.Resume(17, rec); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dst.rk.pmLambda) != math.Float64bits(src.rk.pmLambda) ||
		math.Float64bits(dst.rk.pmPrev) != math.Float64bits(src.rk.pmPrev) {
		t.Errorf("scalars (%v, %v), want (%v, %v)", dst.rk.pmLambda, dst.rk.pmPrev, src.rk.pmLambda, src.rk.pmPrev)
	}
	for i := range src.rk.chunk {
		if math.Float64bits(dst.rk.chunk[i]) != math.Float64bits(src.rk.chunk[i]) {
			t.Errorf("chunk[%d] = %v, want %v", i, dst.rk.chunk[i], src.rk.chunk[i])
		}
	}

	if err := engine(4).Resume(17, nil); err == nil {
		t.Error("missing record restored")
	}
	if err := engine(4).Resume(16, rec); err == nil {
		t.Error("record of boundary 17 restored as boundary 16")
	}
	if err := engine(3).Resume(17, rec); err == nil {
		t.Error("rank 4's record restored on rank 3")
	}
	flip := func(at int) []byte {
		bad := append([]byte(nil), rec...)
		bad[at] ^= 1
		return bad
	}
	if err := engine(4).Resume(17, flip(15)); err == nil {
		t.Error("record with a flipped λ byte restored")
	}
	var mm *RestoreMismatchError
	if err := engine(4).Resume(17, flip(len(rec)-1)); !errors.As(err, &mm) || mm.Rank != 4 {
		t.Errorf("record with a flipped span word: %v, want a *RestoreMismatchError on rank 4", err)
	}
}

// TestCheckpointRecordBytes pins the record format byte for byte, since
// a rank process's checkpoint files carry it: the records of three ranks
// at q = 3, b = 20 hash to fixed digests. Rank 29 owns fewer words (a
// shorter span tail) than ranks 0 and 7.
func TestCheckpointRecordBytes(t *testing.T) {
	part := sphericalPart(t, 3)
	const b = 20
	a := tensor.Random(part.M*b, rand.New(rand.NewSource(3)))
	for _, tc := range []struct {
		rank, size int
		sum        string
	}{
		{0, 120, "740ac82e90d730cffdd59f2bde615845dec41c0109fda2a0de6aa2a831ca56a0"},
		{7, 120, "2ac714806d7d1c660363feadae9ab1e1f7d4131c381d77b4bff4aea7ab9c4d7c"},
		{29, 88, "c113dca19da9cdacd02167b8c1642c17a2efef7b5086e5e18409ca3ed6a9eaa2"},
	} {
		e, err := NewRankEngine(a, Options{Part: part, B: b, Wiring: WiringP2P}, tc.rank)
		if err != nil {
			t.Fatal(err)
		}
		e.rk.pmLambda, e.rk.pmPrev = 1.25e-3, math.Inf(1)
		words := []float64{0, -1.5, math.Pi, 1e-300, math.Copysign(0, -1)}
		w := 0
		for k := range e.rk.lay.rows {
			for i := k*b + e.rk.lay.myLo[k]; i < k*b+e.rk.lay.myHi[k]; i++ {
				e.rk.chunk[i] = words[w%len(words)]
				w++
			}
		}
		rec := e.Checkpoint(17)
		sum := sha256.Sum256(rec)
		if len(rec) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("rank %d record: %d bytes, sha256 %x; want %d bytes, %s", tc.rank, len(rec), sum, tc.size, tc.sum)
		}
	}
}
