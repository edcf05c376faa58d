package parallel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/machine"
)

// This file is the session's incremental checkpoint store. It tracks
// dirty regions: each operation declares (via dirtyKind) which state it
// mutates, and the checkpointer copies only those regions into a
// persistent per-rank shadow mirror.
// Apply/ApplyBatch/MTTKRP never touch the checkpointed state at all (the
// x/y arenas are rebuilt from host staging on every attempt), so their
// steady-state checkpoint cost is a handful of scalar snapshots — zero
// words copied and zero allocations. The power method rewrites only the
// owned spans of the chunk iterate plus two convergence scalars per rank,
// so its cost is O(owned words), independent of arena padding.
//
// Every chunk arena additionally carries Merkle-style page fingerprints
// (FNV-1a leaves over fixed-size pages, matching the wire checksum's
// constants). Dirty pages are re-hashed at checkpoint time; every restore
// re-verifies the full restored arena against the stored fingerprints, so
// a corrupted rollback surfaces as a structured RestoreMismatchError
// instead of silently replaying bad state.

// checkpointPageWords is the fingerprint page granularity in float64
// words. Small enough to localize a mismatch, large enough that hashing
// stays a small fraction of the copy it guards.
const checkpointPageWords = 64

// dirtyKind declares which checkpointed state a dispatched operation can
// mutate; the checkpointer copies only that.
type dirtyKind int

const (
	// dirtyNone: the operation leaves the chunk iterate and the
	// power-method scalars untouched (Apply, ApplyBatch, MTTKRP — their
	// x/y arenas are rebuilt from host staging on every attempt and need
	// no checkpoint).
	dirtyNone dirtyKind = iota
	// dirtyIterate: the operation rewrites the owned spans of the chunk
	// iterate and the convergence scalars (a power-method iteration, and
	// the host-side seeding that precedes one).
	dirtyIterate
)

// RestoreMismatchError reports a checkpoint page whose fingerprint did
// not survive a rollback: the restored arena differs from the state the
// checkpoint captured. The supervisor returns it instead of replaying on
// corrupt state; the failing location is also emitted as a
// machine.EventRestoreMismatch trace event and counted in
// RecoveryStats.Mismatches.
type RestoreMismatchError struct {
	// Rank owns the corrupted chunk arena; Page is the failing
	// checkpointPageWords-sized page index within it.
	Rank, Page int
}

func (e *RestoreMismatchError) Error() string {
	return fmt.Sprintf("parallel: restore verification failed: rank %d chunk page %d does not match its checkpoint fingerprint", e.Rank, e.Page)
}

// ckSlot is one generation of the double-buffered checkpoint state that
// is cheap enough to capture wholesale each dispatch: per-rank logical
// meters, power-method scalars, per-rank trace sequence numbers (the
// rollback markers need them to segment committed from aborted events),
// and the phase recorder's accumulated rows. All storage is pooled in the
// slot and reused — after the first checkpoint of each operation shape
// the capture path performs no allocations.
type ckSlot struct {
	meters   []machine.Meters
	pmLambda []float64
	pmPrev   []float64
	seqs     []int64
	phases   []phaseSnap
	backing  []int64
}

// ckStore is the session's incremental checkpoint store: two alternating
// scalar slots plus a single persistent per-rank shadow mirror of the
// chunk arenas with page fingerprints. One shadow suffices because a
// rollback always targets the latest dispatch boundary, and the host
// syncs the shadow only while every rank is parked — the copy cannot be
// torn by a rank crash.
type ckStore struct {
	slots [2]ckSlot
	turn  int
	// shadow[r] mirrors rank r's committed chunk arena; prints[r] holds
	// its page fingerprints, maintained incrementally (only pages under a
	// dirty span are re-hashed at checkpoint time).
	shadow [][]float64
	prints [][]uint64
}

func newCkStore(rks []*sessionRank) *ckStore {
	ck := &ckStore{
		shadow: make([][]float64, len(rks)),
		prints: make([][]uint64, len(rks)),
	}
	ck.resync(rks)
	return ck
}

// resync rebuilds the shadow mirrors against freshly (re)allocated chunk
// arenas (session open, or an arena-growing ApplyBatch). Chunk arenas
// start zeroed and are only ever written inside their owned spans, so a
// zeroed shadow is already a faithful mirror — no full-arena copy is
// needed here or anywhere else.
func (ck *ckStore) resync(rks []*sessionRank) {
	for r, rk := range rks {
		n := len(rk.chunk)
		if len(ck.shadow[r]) != n {
			ck.shadow[r] = make([]float64, n)
			ck.prints[r] = make([]uint64, (n+checkpointPageWords-1)/checkpointPageWords)
		} else {
			sh := ck.shadow[r]
			for i := range sh {
				sh[i] = 0
			}
		}
		sh := ck.shadow[r]
		for pg := range ck.prints[r] {
			lo, hi := pageBounds(pg, n)
			ck.prints[r][pg] = pageprint(sh[lo:hi])
		}
	}
}

// syncDirty folds rank r's owned chunk spans into the shadow and
// re-fingerprints exactly the pages they cover, returning the word count
// copied. Spans are visited in ascending arena order (owned rows are laid
// out by local index k), so the page dedup below only needs to remember
// the last page hashed.
func (ck *ckStore) syncDirty(r int, rk *sessionRank) int64 {
	sh := ck.shadow[r]
	var words int64
	for k := range rk.lay.rows {
		lo := k*rk.b + rk.lay.myLo[k]
		hi := k*rk.b + rk.lay.myHi[k]
		if hi <= lo {
			continue
		}
		copy(sh[lo:hi], rk.chunk[lo:hi])
		words += int64(hi - lo)
	}
	// Re-hash after all spans landed: adjacent spans may share a page, and
	// hashing it mid-copy would freeze a stale prefix into the fingerprint.
	prints := ck.prints[r]
	last := -1
	for k := range rk.lay.rows {
		lo := k*rk.b + rk.lay.myLo[k]
		hi := k*rk.b + rk.lay.myHi[k]
		if hi <= lo {
			continue
		}
		for pg := lo / checkpointPageWords; pg <= (hi-1)/checkpointPageWords; pg++ {
			if pg <= last {
				continue
			}
			plo, phi := pageBounds(pg, len(sh))
			prints[pg] = pageprint(sh[plo:phi])
			last = pg
		}
	}
	return words
}

// mismatch verifies a restored chunk arena against the fingerprints of
// store entry i and returns the first page that differs, or -1.
func (ck *ckStore) mismatch(i int, chunk []float64) int {
	prints := ck.prints[i]
	for pg := range prints {
		lo, hi := pageBounds(pg, len(chunk))
		if pageprint(chunk[lo:hi]) != prints[pg] {
			return pg
		}
	}
	return -1
}

func pageBounds(pg, n int) (lo, hi int) {
	lo = pg * checkpointPageWords
	hi = lo + checkpointPageWords
	if hi > n {
		hi = n
	}
	return lo, hi
}

// pageprint is FNV-1a over a page's IEEE-754 bit patterns — the same
// construction (and constants) the reliable transport uses for payload
// checksums, applied here as the Merkle leaf over a checkpoint page.
func pageprint(words []float64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range words {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// checkpoint captures the committed state at a dispatch boundary (all
// ranks parked, so the host may read their counters and arenas). Only
// state the operation's dirtyKind can mutate is copied: a dirtyNone
// checkpoint moves no arena words at all. Steady state this path
// allocates nothing — the slots are double-buffered and pooled.
func (s *Session) checkpoint(pr *phaseRecorder, dk dirtyKind) *ckSlot {
	start := time.Now()
	ck := s.ck
	slot := &ck.slots[ck.turn]
	ck.turn ^= 1
	p := s.part.P
	if slot.meters == nil {
		slot.meters = make([]machine.Meters, p)
		slot.pmLambda = make([]float64, p)
		slot.pmPrev = make([]float64, p)
		slot.seqs = make([]int64, p)
	}
	for r := 0; r < p; r++ {
		slot.meters[r] = s.cur.h.RankMeters(r)
		slot.pmLambda[r] = s.rk[r].pmLambda
		slot.pmPrev[r] = s.rk[r].pmPrev
		slot.seqs[r] = s.cur.h.RankEventSeq(r)
	}
	if dk == dirtyIterate {
		var words int64
		for r := 0; r < p; r++ {
			words += ck.syncDirty(r, s.rk[r])
		}
		s.stats.CheckpointWords += words
	}
	if pr != nil {
		slot.phases, slot.backing = pr.snapshotInto(slot.phases, slot.backing)
	} else {
		slot.phases = slot.phases[:0]
	}
	s.stats.CheckpointNanos += time.Since(start).Nanoseconds()
	return slot
}

// restore rolls every rank back to the checkpoint on the relaunched
// machine (relaunch has already carried the meters over): the chunk
// iterate from the shadow mirror, the power-method scalars, and the phase
// recorder rows.
//
// Every restored arena is then re-verified page by page against the
// checkpoint-time fingerprints. A mismatch is surfaced as a
// RestoreMismatchError (plus a trace event and a stats counter), never
// absorbed into a replay.
func (s *Session) restore(ck *ckSlot, pr *phaseRecorder) error {
	start := time.Now()
	l := s.cur
	p := s.part.P
	for r := 0; r < p; r++ {
		copy(s.rk[r].chunk, s.ck.shadow[r])
		s.rk[r].pmLambda = ck.pmLambda[r]
		s.rk[r].pmPrev = ck.pmPrev[r]
	}
	if pr != nil {
		pr.restore(ck.phases)
	}
	s.stats.Verifications++
	pages := 0
	for r := 0; r < p; r++ {
		if pg := s.ck.mismatch(r, s.rk[r].chunk); pg >= 0 {
			s.stats.Mismatches++
			l.h.Emit(r, machine.Event{Kind: machine.EventRestoreMismatch, From: r, To: r, Step: pg})
			return &RestoreMismatchError{Rank: r, Page: pg}
		}
		pages += len(s.ck.prints[r])
	}
	l.h.Emit(0, machine.Event{Kind: machine.EventRestoreVerify, From: 0, To: 0, Words: pages, Step: -1})
	s.stats.Rollbacks++
	s.stats.RestoreNanos += time.Since(start).Nanoseconds()
	// Per-rank rollback markers carrying the checkpoint-time event
	// sequence: every logical event a rank emitted at or after Step
	// belongs to the aborted attempt (see obs.CheckCommittedAgainstReport).
	for r := 0; r < p; r++ {
		l.h.Emit(r, machine.Event{Kind: machine.EventRecoveryEnd, From: r, To: r, Step: int(ck.seqs[r])})
	}
	return nil
}

// The durable record of one store entry: what a Session checkpoint holds
// for that rank, written by a multi-process rank after every round (see
// RankEngine.Checkpoint). Format (big-endian):
//
//	u32 magic "STCK" | u32 rank | u32 iter | u64 λ bits | u64 prev bits |
//	u32 npages | npages × u64 page fingerprint | u64 FNV-1a over all prior
//	bytes | the owned span words in arena order
//
// The checksum covers the header, the scalars and the fingerprints; the
// span words are checked by the fingerprints once they are restored.
const recordMagic = 0x5354434b // "STCK"

// recordSizes returns the length of entry i's record up to and including
// the checksum, and its full length.
func (ck *ckStore) recordSizes(i int, rk *sessionRank) (head, total int) {
	head = 32 + 8*len(ck.prints[i]) + 8
	total = head
	for k := range rk.lay.rows {
		total += 8 * (rk.lay.myHi[k] - rk.lay.myLo[k])
	}
	return head, total
}

// record encodes entry i, holding rank's state at boundary iter, with
// rk's convergence scalars.
func (ck *ckStore) record(i, rank, iter int, rk *sessionRank) []byte {
	_, total := ck.recordSizes(i, rk)
	buf := make([]byte, 0, total)
	buf = binary.BigEndian.AppendUint32(buf, recordMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(iter))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rk.pmLambda))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rk.pmPrev))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ck.prints[i])))
	for _, pr := range ck.prints[i] {
		buf = binary.BigEndian.AppendUint64(buf, pr)
	}
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	sh := ck.shadow[i]
	for k := range rk.lay.rows {
		for _, v := range sh[k*rk.b+rk.lay.myLo[k] : k*rk.b+rk.lay.myHi[k]] {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// load decodes a record of rank at boundary iter into entry i (span words
// and fingerprints) and rk's convergence scalars. Nothing is written
// unless the length, checksum, rank and boundary all check out.
func (ck *ckStore) load(i, rank, iter int, rk *sessionRank, rec []byte) error {
	head, total := ck.recordSizes(i, rk)
	if len(rec) != total {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d is %d bytes, want %d", rank, iter, len(rec), total)
	}
	h := fnv.New64a()
	h.Write(rec[:head-8])
	if h.Sum64() != binary.BigEndian.Uint64(rec[head-8:]) {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d fails its checksum", rank, iter)
	}
	if binary.BigEndian.Uint32(rec) != recordMagic || int(binary.BigEndian.Uint32(rec[28:])) != len(ck.prints[i]) {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d has a bad header", rank, iter)
	}
	if r, it := int(binary.BigEndian.Uint32(rec[4:])), int(binary.BigEndian.Uint32(rec[8:])); r != rank || it != iter {
		return fmt.Errorf("parallel: checkpoint record holds rank %d at boundary %d, want rank %d at %d", r, it, rank, iter)
	}
	rk.pmLambda = math.Float64frombits(binary.BigEndian.Uint64(rec[12:]))
	rk.pmPrev = math.Float64frombits(binary.BigEndian.Uint64(rec[20:]))
	prints := ck.prints[i]
	for pg := range prints {
		prints[pg] = binary.BigEndian.Uint64(rec[32+8*pg:])
	}
	pos, sh := head, ck.shadow[i]
	for k := range rk.lay.rows {
		for t := k*rk.b + rk.lay.myLo[k]; t < k*rk.b+rk.lay.myHi[k]; t++ {
			sh[t] = math.Float64frombits(binary.BigEndian.Uint64(rec[pos:]))
			pos += 8
		}
	}
	return nil
}
