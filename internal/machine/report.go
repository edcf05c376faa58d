package machine

import "fmt"

// Report carries the per-rank communication meters of a completed run.
//
// The logical meters (SentWords, RecvWords, SentMsgs, RecvMsgs) count the
// payload of Send/Recv calls — the quantities the paper's lower bounds
// are about. The wire meters additionally count everything the transport
// put on the network: retransmissions, duplicates delivered by a fault
// injector, and acknowledgements. Under the direct transport on a
// fault-free wire the two coincide; under a reliable transport the
// difference is the recovery overhead, kept strictly apart so fault
// schedules can never perturb the metered logical communication.
type Report struct {
	P         int
	SentWords []int64
	RecvWords []int64
	SentMsgs  []int64
	RecvMsgs  []int64

	WireSentWords []int64
	WireRecvWords []int64
	WireSentMsgs  []int64
	WireRecvMsgs  []int64
}

// NewReport builds the report of per-rank meters ms, rank r's from ms[r].
func NewReport(ms []Meters) *Report {
	p := len(ms)
	rep := &Report{
		P:             p,
		SentWords:     make([]int64, p),
		RecvWords:     make([]int64, p),
		SentMsgs:      make([]int64, p),
		RecvMsgs:      make([]int64, p),
		WireSentWords: make([]int64, p),
		WireRecvWords: make([]int64, p),
		WireSentMsgs:  make([]int64, p),
		WireRecvMsgs:  make([]int64, p),
	}
	for r, m := range ms {
		rep.SentWords[r] = m.SentWords
		rep.RecvWords[r] = m.RecvWords
		rep.SentMsgs[r] = m.SentMsgs
		rep.RecvMsgs[r] = m.RecvMsgs
		rep.WireSentWords[r] = m.WireSentWords
		rep.WireRecvWords[r] = m.WireRecvWords
		rep.WireSentMsgs[r] = m.WireSentMsgs
		rep.WireRecvMsgs[r] = m.WireRecvMsgs
	}
	return rep
}

// MaxSentWords returns the maximum words sent by any rank.
func (r *Report) MaxSentWords() int64 { return maxOf(r.SentWords) }

// MaxRecvWords returns the maximum words received by any rank.
func (r *Report) MaxRecvWords() int64 { return maxOf(r.RecvWords) }

// MaxWords returns the bandwidth cost in the paper's sense: the maximum
// over ranks of the larger of words sent and words received (sends and
// receives overlap on bidirectional links).
func (r *Report) MaxWords() int64 {
	var m int64
	for i := range r.SentWords {
		v := r.SentWords[i]
		if r.RecvWords[i] > v {
			v = r.RecvWords[i]
		}
		if v > m {
			m = v
		}
	}
	return m
}

// TotalSentWords returns the total words moved through the network.
func (r *Report) TotalSentWords() int64 { return sumOf(r.SentWords) }

// MaxSentMsgs returns the maximum message count sent by any rank (the
// latency cost proxy).
func (r *Report) MaxSentMsgs() int64 { return maxOf(r.SentMsgs) }

// MaxRecvMsgs returns the maximum message count received by any rank.
func (r *Report) MaxRecvMsgs() int64 { return maxOf(r.RecvMsgs) }

// TotalWireSentWords returns the total payload words that crossed the
// wire, retransmissions and duplicates included.
func (r *Report) TotalWireSentWords() int64 { return sumOf(r.WireSentWords) }

// MaxWireSentMsgs returns the maximum raw packet count (data + acks) any
// rank pushed onto the wire.
func (r *Report) MaxWireSentMsgs() int64 { return maxOf(r.WireSentMsgs) }

// OverheadWords returns the words the transport moved beyond the logical
// payload (retransmissions and injected duplicates; acks are zero-word).
// Zero when wire meters were not collected (hand-built reports).
func (r *Report) OverheadWords() int64 {
	if len(r.WireSentWords) == 0 {
		return 0
	}
	return r.TotalWireSentWords() - r.TotalSentWords()
}

// String renders a one-line summary of the meters.
func (r *Report) String() string {
	s := fmt.Sprintf("P=%d: max sent %dw/%dm, max recv %dw/%dm, total %dw",
		r.P, r.MaxSentWords(), r.MaxSentMsgs(), r.MaxRecvWords(), r.MaxRecvMsgs(), r.TotalSentWords())
	if len(r.WireSentWords) > 0 {
		s += fmt.Sprintf("; wire %dw (+%dw overhead, %d packets)",
			r.TotalWireSentWords(), r.OverheadWords(), sumOf(r.WireSentMsgs))
	}
	return s
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, v := range xs {
		s += v
	}
	return s
}
