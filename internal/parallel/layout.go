package parallel

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// This file precomputes the steady-state exchange layout a Session rank
// runs on: which arena words each step moves, in which order, and how
// many. Everything the seed Run derived per message inside the hot loop —
// sharedRowsOf scans, OwnedRange lookups, append-grown payloads — is
// resolved here once at session open, so the per-application path is
// pure copy/add over precomputed segments. Both wirings are laid out as
// steps of the same shape; this is the only place that tells them apart.

// segment addresses one row-block chunk inside a rank's arena: local row
// index k (position in the rank's owned-row list) and the chunk bounds
// within the b-long block. Pack and unpack iterate segments in the exact
// order the seed code iterated (row, then range), so payload bytes are
// bit-identical.
type segment struct {
	k      int
	lo, hi int
}

func (s segment) words() int { return s.hi - s.lo }

// sessStep is one rank's role in one step of an exchange, with segment
// lists for both phases: the gather phase sends the rank's own chunks
// (gSend) and copies in the peer's chunks (gRecv); the reduce-scatter
// phase sends the peer's chunks of the partial results (sSend) and adds
// received partials into the rank's own chunks (sRecv). A message is
// tagged with its sender's step index (100+index in the gather phase,
// 200+index in the reduce-scatter phase): sendTag is this step's index,
// recvTag the index of the peer's step that sends what this one receives.
type sessStep struct {
	sendTo           int // -1 when idle
	recvFrom         int // -1 when idle
	sendTag, recvTag int
	gSend            []segment
	gRecv            []segment
	sSend            []segment
	sRecv            []segment
	// words per column of each message; a message is zero past its
	// segments' payload
	gSendW, gRecvW, sSendW, sRecvW int
}

// rankLayout is one rank's full precomputed layout.
type rankLayout struct {
	rows   []int // owned row blocks, partition order
	rowIdx []int // global row block -> local k, -1 when unowned
	myLo   []int // owned chunk bounds per local row
	myHi   []int
	steps  []sessStep
	// maxMsgW is the largest single-message word count per column this
	// rank sends or receives — the step-buffer size.
	maxMsgW int
}

// sessionLayout is the whole machine's layout.
type sessionLayout struct {
	perRank []rankLayout
	steps   int // communication steps per exchange phase
}

// buildLayout precomputes every rank's layout for the wiring: the
// point-to-point schedule's steps, or the All-to-All's P−1 rounds.
func buildLayout(part *partition.Tetrahedral, wiring Wiring, b int) (*sessionLayout, error) {
	L := &sessionLayout{perRank: make([]rankLayout, part.P)}
	for p := 0; p < part.P; p++ {
		rk := &L.perRank[p]
		rk.rows = part.Rp[p]
		rk.rowIdx = make([]int, part.M)
		for i := range rk.rowIdx {
			rk.rowIdx[i] = -1
		}
		rk.myLo = make([]int, len(rk.rows))
		rk.myHi = make([]int, len(rk.rows))
		for k, row := range rk.rows {
			rk.rowIdx[row] = k
			lo, hi, ok := part.OwnedRange(p, row, b)
			if !ok {
				return nil, fmt.Errorf("parallel: rank %d has no chunk of its row %d", p, row)
			}
			rk.myLo[k], rk.myHi[k] = lo, hi
		}
	}

	var err error
	switch wiring {
	case WiringP2P:
		var sched *schedule.Schedule
		if sched, err = schedule.Build(part); err == nil {
			err = buildP2PLayout(L, part, sched, b)
		}
	case WiringAllToAll:
		err = buildA2ALayout(L, part, b)
	default:
		err = fmt.Errorf("parallel: unknown wiring %v", wiring)
	}
	if err != nil {
		return nil, err
	}
	return L, nil
}

// segsFor builds the segment list for rows with chunk bounds taken from
// owner's ranges, using owner's local row indexing from lay.
func segsFor(part *partition.Tetrahedral, lay *rankLayout, owner int, rows []int, b int) ([]segment, int, error) {
	segs := make([]segment, len(rows))
	words := 0
	for si, row := range rows {
		k := lay.rowIdx[row]
		if k < 0 {
			return nil, 0, fmt.Errorf("parallel: schedule names row %d a rank does not own", row)
		}
		lo, hi, ok := part.OwnedRange(owner, row, b)
		if !ok {
			return nil, 0, fmt.Errorf("parallel: rank %d owns no chunk of row %d", owner, row)
		}
		segs[si] = segment{k: k, lo: lo, hi: hi}
		words += hi - lo
	}
	return segs, words, nil
}

// buildP2PLayout fills every rank's sessStep table straight from the
// schedule's transfers: step si sends and receives exact-size messages
// under tag si.
func buildP2PLayout(L *sessionLayout, part *partition.Tetrahedral, sched *schedule.Schedule, b int) error {
	L.steps = sched.NumSteps()
	for p := range L.perRank {
		rk := &L.perRank[p]
		rk.steps = make([]sessStep, L.steps)
		for si := range rk.steps {
			rk.steps[si] = sessStep{sendTo: -1, recvFrom: -1, sendTag: si, recvTag: si}
		}
	}
	for si, step := range sched.Steps {
		for _, tr := range step {
			snd, rcv := &L.perRank[tr.From], &L.perRank[tr.To]
			ss, rs := &snd.steps[si], &rcv.steps[si]
			ss.sendTo, rs.recvFrom = tr.To, tr.From
			// Gather sends the sender's chunks, which the receiver copies
			// in; scatter sends partials for the receiver's chunks, which
			// the receiver adds into its own.
			var err error
			if ss.gSend, ss.gSendW, err = segsFor(part, snd, tr.From, tr.Rows, b); err != nil {
				return err
			}
			if ss.sSend, ss.sSendW, err = segsFor(part, snd, tr.To, tr.Rows, b); err != nil {
				return err
			}
			if rs.gRecv, rs.gRecvW, err = segsFor(part, rcv, tr.From, tr.Rows, b); err != nil {
				return err
			}
			if rs.sRecv, rs.sRecvW, err = segsFor(part, rcv, tr.To, tr.Rows, b); err != nil {
				return err
			}
			snd.maxMsgW = max(snd.maxMsgW, ss.gSendW, ss.sSendW)
			rcv.maxMsgW = max(rcv.maxMsgW, rs.gRecvW, rs.sRecvW)
		}
	}
	return nil
}

// buildA2ALayout lays the fixed-width All-to-All of Algorithm 5's
// pseudocode out as the P−1 rounds of the pairwise exchange: in step si
// rank p sends to rank p+si+1 (mod P), and every message of either phase
// is 2·maxChunk words per column, the rank pair's shared chunks followed
// by zeros, even between ranks that share no row — the padding §7.2.2
// charges. A rank receives from its peers in ascending order, which is
// the order its reduce-scatter adds their partials in.
func buildA2ALayout(L *sessionLayout, part *partition.Tetrahedral, b int) error {
	P := part.P
	maxChunk := 0
	for i := 0; i < part.M; i++ {
		maxChunk = max(maxChunk, intmath.CeilDiv(b, len(part.Qi[i])))
	}
	width := 2 * maxChunk
	// shared[p][peer] lists R_p ∩ R_peer in R_p order — one pass over each
	// rank's rows and their sharer lists.
	shared := make([][][]int, P)
	for p := range shared {
		shared[p] = make([][]int, P)
	}
	for p := 0; p < P; p++ {
		for _, row := range part.Rp[p] {
			for _, peer := range part.Qi[row] {
				if peer != p {
					shared[p][peer] = append(shared[p][peer], row)
				}
			}
		}
	}
	L.steps = P - 1
	mine, theirs := make([][]segment, P), make([][]segment, P)
	for p := 0; p < P; p++ {
		rk := &L.perRank[p]
		for peer := 0; peer < P; peer++ {
			if peer == p {
				continue
			}
			// mine holds the rank's own chunks of the rows it shares with
			// the peer, theirs the peer's; both owners hold every shared
			// row, so segsFor cannot fail.
			var myW, peerW int
			mine[peer], myW, _ = segsFor(part, rk, p, shared[p][peer], b)
			theirs[peer], peerW, _ = segsFor(part, rk, peer, shared[p][peer], b)
			if myW > width || peerW > width {
				return fmt.Errorf("parallel: rank %d shares %d+%d words with rank %d, exceeding All-to-All width %d",
					p, myW, peerW, peer, width)
			}
		}
		rk.steps = make([]sessStep, L.steps)
		for si := range rk.steps {
			to := (p + si + 1) % P
			from := si
			if from >= p {
				from++
			}
			rk.steps[si] = sessStep{
				sendTo: to, recvFrom: from,
				sendTag: si, recvTag: (p-from+P)%P - 1,
				gSend: mine[to], gRecv: theirs[from],
				sSend: theirs[to], sRecv: mine[from],
				gSendW: width, gRecvW: width, sSendW: width, sRecvW: width,
			}
		}
		rk.maxMsgW = width
	}
	return nil
}
