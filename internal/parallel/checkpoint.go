package parallel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/machine"
)

// This file is the crash-recovery checkpoint. A rank's checkpoint is one
// record (see encodeRecord): its convergence scalars, a fingerprint of
// every page of its chunk arena, and its owned span words. A recovering
// Session encodes every rank's record in memory at each dirtyIterate
// boundary, and a multi-process rank writes the same bytes to disk after
// every round (RankEngine.Checkpoint); one function loads a record back
// and verifies it for both (loadRecord). Each operation declares which
// state it mutates (dirtyKind): Apply, ApplyBatch and MTTKRP rebuild their
// x/y arenas from host staging on every attempt and touch neither the
// iterate nor the scalars, so their boundaries encode nothing.
//
// Every restore re-verifies the whole restored arena against the record's
// page fingerprints (FNV-1a leaves, the wire checksum's construction), so
// a corrupted rollback surfaces as a structured RestoreMismatchError
// instead of silently replaying bad state.

// checkpointPageWords is the fingerprint page granularity in float64
// words. Small enough to localize a mismatch, large enough that hashing
// stays a small fraction of the copy it guards.
const checkpointPageWords = 64

// dirtyKind declares which checkpointed state a dispatched operation can
// mutate; the checkpointer encodes only that.
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

// ckStore is a recovering session's checkpoint: every rank's meters and
// trace sequence number (the rollback markers need it to segment
// committed from aborted events) at the latest dispatch boundary, and its
// record from the latest dirtyIterate boundary, or from open. The host
// writes it only while every rank is parked, so a rank crash cannot tear
// it, and it reuses every buffer: a capture allocates nothing.
type ckStore struct {
	meters []machine.Meters
	seqs   []int64
	recs   [][]byte
}

// checkpoint captures the committed state at a dispatch boundary (all
// ranks parked, so the host may read their counters and arenas). Only a
// dirtyIterate boundary encodes records: a dirtyNone operation neither
// reads nor writes the iterate or the scalars, so a rollback may restore
// the last records under it, and the next power method seeds afresh.
func (s *Session) checkpoint(dk dirtyKind) {
	start := time.Now()
	for r := range s.rk {
		s.ck.meters[r] = s.cur.h.RankMeters(r)
		s.ck.seqs[r] = s.cur.h.RankEventSeq(r)
	}
	if dk == dirtyIterate {
		s.stats.CheckpointWords += s.encodeRecords()
	}
	s.stats.CheckpointNanos += time.Since(start).Nanoseconds()
}

// encodeRecords writes every rank's record at boundary 0 into its reused
// buffer and returns the owned words the records carry.
func (s *Session) encodeRecords() int64 {
	var words int64
	for r, rk := range s.rk {
		s.ck.recs[r] = rk.encodeRecord(s.ck.recs[r], r, 0)
		words += int64(rk.ownedWords())
	}
	return words
}

// restore rolls every rank back to its record on the relaunched machine
// (relaunch has already carried the meters over) and verifies each
// restored arena page by page. A mismatch is surfaced as a
// RestoreMismatchError (plus a trace event and a stats counter), never
// absorbed into a replay.
func (s *Session) restore() error {
	start := time.Now()
	l := s.cur
	s.stats.Verifications++
	pages := 0
	for r, rk := range s.rk {
		if err := rk.loadRecord(r, 0, s.ck.recs[r]); err != nil {
			var mm *RestoreMismatchError
			if errors.As(err, &mm) {
				s.stats.Mismatches++
				l.h.Emit(r, machine.Event{Kind: machine.EventRestoreMismatch, From: r, To: r, Step: mm.Page})
			}
			return err
		}
		pages += rk.pages()
	}
	l.h.Emit(0, machine.Event{Kind: machine.EventRestoreVerify, From: 0, To: 0, Words: pages, Step: -1})
	s.stats.Rollbacks++
	s.stats.RestoreNanos += time.Since(start).Nanoseconds()
	// Per-rank rollback markers carrying the checkpoint-time event
	// sequence: every logical event a rank emitted at or after Step
	// belongs to the aborted attempt (see obs.Trace.RankTotals).
	for r := range s.rk {
		l.h.Emit(r, machine.Event{Kind: machine.EventRecoveryEnd, From: r, To: r, Step: int(s.ck.seqs[r])})
	}
	return nil
}

// A rank's checkpoint record. Format (big-endian):
//
//	u32 magic "STCK" | u32 rank | u32 iter | u64 λ bits | u64 prev bits |
//	u32 npages | npages × u64 page fingerprint | u64 FNV-1a over all prior
//	bytes | the owned span words in arena order
//
// The checksum covers the header, the scalars and the fingerprints; the
// span words are checked by the fingerprints once they are restored.
const recordMagic = 0x5354434b // "STCK"

// pages returns the number of fingerprint pages of the chunk arena.
func (rk *sessionRank) pages() int {
	return (len(rk.chunk) + checkpointPageWords - 1) / checkpointPageWords
}

// ownedWords returns the number of words in the rank's owned spans.
func (rk *sessionRank) ownedWords() int {
	w := 0
	for k := range rk.lay.rows {
		w += rk.lay.myHi[k] - rk.lay.myLo[k]
	}
	return w
}

// ownedSpan returns the arena bounds of the rank's owned span in row k.
func (rk *sessionRank) ownedSpan(k int) (lo, hi int) {
	return k*rk.b + rk.lay.myLo[k], k*rk.b + rk.lay.myHi[k]
}

// page returns the chunk arena words of fingerprint page pg.
func (rk *sessionRank) page(pg int) []float64 {
	lo := pg * checkpointPageWords
	return rk.chunk[lo:min(lo+checkpointPageWords, len(rk.chunk))]
}

// recordHead is the length of a record up to and including its checksum.
func recordHead(pages int) int { return 32 + 8*pages + 8 }

// encodeRecord encodes the rank's state at boundary iter, as rank, into
// dst's storage, which it grows only when its capacity is short.
func (rk *sessionRank) encodeRecord(dst []byte, rank, iter int) []byte {
	np := rk.pages()
	if total := recordHead(np) + 8*rk.ownedWords(); cap(dst) < total {
		dst = make([]byte, 0, total)
	}
	buf := binary.BigEndian.AppendUint32(dst[:0], recordMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(rank))
	buf = binary.BigEndian.AppendUint32(buf, uint32(iter))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rk.pmLambda))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rk.pmPrev))
	buf = binary.BigEndian.AppendUint32(buf, uint32(np))
	for pg := 0; pg < np; pg++ {
		buf = binary.BigEndian.AppendUint64(buf, machine.Checksum(rk.page(pg)))
	}
	buf = binary.BigEndian.AppendUint64(buf, machine.ChecksumBytes(buf))
	for k := range rk.lay.rows {
		lo, hi := rk.ownedSpan(k)
		for _, v := range rk.chunk[lo:hi] {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// loadRecord restores the rank, as rank at boundary iter, from rec: the
// convergence scalars, and the owned span words into the chunk arena.
// Nothing is written unless the length, checksum, header, rank and
// boundary all check out. Every page of the arena must then match the
// record's fingerprint, else the error is a *RestoreMismatchError. A
// Session rollback and RankEngine.Resume both restore through it.
func (rk *sessionRank) loadRecord(rank, iter int, rec []byte) error {
	np := rk.pages()
	head := recordHead(np)
	if total := head + 8*rk.ownedWords(); len(rec) != total {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d is %d bytes, want %d", rank, iter, len(rec), total)
	}
	if machine.ChecksumBytes(rec[:head-8]) != binary.BigEndian.Uint64(rec[head-8:]) {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d fails its checksum", rank, iter)
	}
	if binary.BigEndian.Uint32(rec) != recordMagic || int(binary.BigEndian.Uint32(rec[28:])) != np {
		return fmt.Errorf("parallel: checkpoint record of rank %d at boundary %d has a bad header", rank, iter)
	}
	if r, it := int(binary.BigEndian.Uint32(rec[4:])), int(binary.BigEndian.Uint32(rec[8:])); r != rank || it != iter {
		return fmt.Errorf("parallel: checkpoint record holds rank %d at boundary %d, want rank %d at %d", r, it, rank, iter)
	}
	rk.pmLambda = math.Float64frombits(binary.BigEndian.Uint64(rec[12:]))
	rk.pmPrev = math.Float64frombits(binary.BigEndian.Uint64(rec[20:]))
	pos := head
	for k := range rk.lay.rows {
		lo, hi := rk.ownedSpan(k)
		for t := lo; t < hi; t++ {
			rk.chunk[t] = math.Float64frombits(binary.BigEndian.Uint64(rec[pos:]))
			pos += 8
		}
	}
	for pg := 0; pg < np; pg++ {
		if machine.Checksum(rk.page(pg)) != binary.BigEndian.Uint64(rec[32+8*pg:]) {
			return &RestoreMismatchError{Rank: rank, Page: pg}
		}
	}
	return nil
}
