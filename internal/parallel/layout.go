package parallel

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// This file precomputes the steady-state exchange layout a Session rank
// runs on: which arena words each schedule step moves, in which order, and
// how many. Everything the seed Run derived per message inside the hot
// loop — sharedRowsOf scans, OwnedRange lookups, append-grown payloads —
// is resolved here once at session open, so the per-application path is
// pure copy/add over precomputed segments.

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

// sessStep is one rank's role in one point-to-point schedule step, with
// segment lists for both phases: the gather phase sends the rank's own
// chunks (gSend) and copies in the peer's chunks (gRecv); the
// reduce-scatter phase sends the peer's chunks of the partial results
// (sSend) and adds received partials into the rank's own chunks (sRecv).
type sessStep struct {
	sendTo   int // -1 when idle
	recvFrom int // -1 when idle
	gSend    []segment
	gRecv    []segment
	sSend    []segment
	sRecv    []segment
	// words per column of each message (exact payload sizes)
	gSendW, gRecvW, sSendW, sRecvW int
}

// a2aPeer is one rank's precomputed exchange with one peer under the
// All-to-All wiring: mySegs are the rank's own chunks of the shared rows
// (gather pack / scatter unpack), peerSegs the peer's chunks (gather
// unpack / scatter pack).
type a2aPeer struct {
	peer     int
	mySegs   []segment
	peerSegs []segment
	myW      int // words per column of my chunks
	peerW    int // words per column of the peer's chunks
}

// rankLayout is one rank's full precomputed layout.
type rankLayout struct {
	rows   []int // owned row blocks, partition order
	rowIdx []int // global row block -> local k, -1 when unowned
	myLo   []int // owned chunk bounds per local row
	myHi   []int
	steps  []sessStep // point-to-point wiring; nil otherwise
	peers  []a2aPeer  // all-to-all wiring; nil otherwise
	// maxMsgW is the largest single-message word count per column this
	// rank sends or receives — the step-buffer size.
	maxMsgW int
}

// sessionLayout is the whole machine's layout.
type sessionLayout struct {
	perRank  []rankLayout
	steps    int // communication steps per exchange phase
	maxChunk int // largest chunk width (All-to-All message sizing)
}

// buildLayout precomputes every rank's layout for the wiring. The shared
// rows of each pair are derived in one O(P·q²) pass over the partition
// (each row names its q+1 sharers) instead of the O(P²·q) pairwise scans
// of the seed.
func buildLayout(part *partition.Tetrahedral, sched *schedule.Schedule, wiring Wiring, b int) (*sessionLayout, error) {
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
	L.maxChunk = 0
	for i := 0; i < part.M; i++ {
		if w := intmath.CeilDiv(b, len(part.Qi[i])); w > L.maxChunk {
			L.maxChunk = w
		}
	}

	switch wiring {
	case WiringP2P:
		if err := buildP2PLayout(L, part, sched, b); err != nil {
			return nil, err
		}
	case WiringAllToAll:
		buildA2ALayout(L, part, b)
	default:
		return nil, fmt.Errorf("parallel: unknown wiring %v", wiring)
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
// schedule's transfers.
func buildP2PLayout(L *sessionLayout, part *partition.Tetrahedral, sched *schedule.Schedule, b int) error {
	L.steps = sched.NumSteps()
	for p := range L.perRank {
		rk := &L.perRank[p]
		rk.steps = make([]sessStep, L.steps)
		for si := range rk.steps {
			rk.steps[si].sendTo, rk.steps[si].recvFrom = -1, -1
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

func buildA2ALayout(L *sessionLayout, part *partition.Tetrahedral, b int) {
	L.steps = part.P - 1
	// shared[p][peer] lists R_p ∩ R_peer in R_p order — one pass over each
	// rank's rows and their sharer lists.
	shared := make([][][]int, part.P)
	for p := range shared {
		shared[p] = make([][]int, part.P)
	}
	for p := 0; p < part.P; p++ {
		for _, row := range part.Rp[p] {
			for _, peer := range part.Qi[row] {
				if peer != p {
					shared[p][peer] = append(shared[p][peer], row)
				}
			}
		}
	}
	for p := 0; p < part.P; p++ {
		rk := &L.perRank[p]
		for peer := 0; peer < part.P; peer++ {
			rows := shared[p][peer]
			if peer == p || len(rows) == 0 {
				continue
			}
			ap := a2aPeer{peer: peer}
			// Both owners hold every shared row, so segsFor cannot fail.
			ap.mySegs, ap.myW, _ = segsFor(part, rk, p, rows, b)
			ap.peerSegs, ap.peerW, _ = segsFor(part, rk, peer, rows, b)
			rk.peers = append(rk.peers, ap)
			for _, w := range [...]int{ap.myW, ap.peerW} {
				if w > rk.maxMsgW {
					rk.maxMsgW = w
				}
			}
		}
	}
}
