package machine

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestInboxFloodUnbounded(t *testing.T) {
	// Regression: a fixed-capacity inbox (historically 2P packets)
	// deadlocks any protocol whose in-flight message count exceeds it.
	// The default mailbox is unbounded, so flooding one rank with far
	// more than 2P messages before it receives a single one must
	// complete.
	const p = 4
	const perSender = 5 * p // 15 msgs/sender, 45 total into rank 0 > 2P = 8
	_, err := RunWith(p, RunConfig{Timeout: 5 * time.Second}, func(c *Comm) {
		if c.Rank() != 0 {
			for i := 0; i < perSender; i++ {
				c.Send(0, i, []float64{float64(c.Rank()), float64(i)})
			}
			c.Send(0, perSender, nil) // done
			return
		}
		for from := 1; from < p; from++ {
			c.Recv(from, perSender) // every sender has finished before rank 0 drains
		}
		for from := 1; from < p; from++ {
			for i := 0; i < perSender; i++ {
				got := c.Recv(from, i)
				if int(got[0]) != from || int(got[1]) != i {
					t.Errorf("from %d tag %d: got %v", from, i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockVerdictReleasesRanks: once the watchdog's verdict is in,
// the ranks it found blocked unwind and exit, and the abort that unwinds
// them is no rank death.
func TestDeadlockVerdictReleasesRanks(t *testing.T) {
	before := runtime.NumGoroutine()
	var downs atomic.Int32
	_, err := RunWith(3, RunConfig{
		Timeout:    50 * time.Millisecond,
		OnRankDown: func(int, error) { downs.Add(1) },
	}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(1, 5)
		case 1:
			c.Recv(0, 6)
		}
	})
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err %T (%v), want *DeadlockError", err, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the verdict, %d before the run", runtime.NumGoroutine(), before)
		}
	}
	if n := downs.Load(); n != 0 {
		t.Errorf("%d ranks reported down, want none", n)
	}
}

func TestDeadlockErrorStructure(t *testing.T) {
	// Mutual receive: each rank waits on the other. The error must name
	// each blocked rank with the (peer, tag) it waits on.
	_, err := RunWith(3, RunConfig{Timeout: 50 * time.Millisecond}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(1, 5)
		case 1:
			c.Recv(0, 6)
		case 2:
			// completes immediately
		}
	})
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err %T (%v), want *DeadlockError", err, err)
	}
	if dead.P != 3 || len(dead.Crashed) != 0 {
		t.Errorf("P=%d crashed=%v", dead.P, dead.Crashed)
	}
	if len(dead.Waits) != 2 {
		t.Fatalf("waits = %+v, want 2 entries", dead.Waits)
	}
	sort.Slice(dead.Waits, func(i, j int) bool { return dead.Waits[i].Rank < dead.Waits[j].Rank })
	for i, want := range []RankWait{
		{Rank: 0, Kind: BlockRecv, Peer: 1, Tag: 5},
		{Rank: 1, Kind: BlockRecv, Peer: 0, Tag: 6},
	} {
		got := dead.Waits[i]
		if got.Rank != want.Rank || got.Kind != want.Kind || got.Peer != want.Peer || got.Tag != want.Tag {
			t.Errorf("wait[%d] = %+v, want %+v", i, got, want)
		}
	}
	msg := dead.Error()
	for _, frag := range []string{"timed out", "rank 0", "rank 1", "tag 5", "tag 6"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error text %q missing %q", msg, frag)
		}
	}
}

func TestDeadlockErrorReportsPendingMessages(t *testing.T) {
	// A message delivered but never matched shows up in the blocked
	// receiver's pending-queue diagnostics.
	_, err := RunWith(2, RunConfig{Timeout: 50 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2, 3, 4})
			c.Recv(1, 0) // never sent
		} else {
			c.Recv(0, 9) // wrong tag: buffers the tag-3 message, waits forever
		}
	})
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("err %T (%v), want *DeadlockError", err, err)
	}
	var rank1 *RankWait
	for i := range dead.Waits {
		if dead.Waits[i].Rank == 1 {
			rank1 = &dead.Waits[i]
		}
	}
	if rank1 == nil {
		t.Fatalf("rank 1 not in waits: %+v", dead.Waits)
	}
	if len(rank1.Pending) != 1 || rank1.Pending[0].From != 0 || rank1.Pending[0].Tag != 3 ||
		rank1.Pending[0].Msgs != 1 || rank1.Pending[0].Words != 4 {
		t.Errorf("rank 1 pending = %+v, want one 4-word message from 0 tag 3", rank1.Pending)
	}
}

// TestDeadlockReportListsInboxMessages: a rank parked on a receive wakes
// only for the (source, tag) it awaits, so a message it does not want can
// stay in its inbox instead of moving to its held list. The report must
// list it either way: when rank 1 parks in Recv(0, 9) before rank 0 sends
// tag 3 (the message stays queued), and when the message arrives first
// (rank 1 holds it, then parks).
func TestDeadlockReportListsInboxMessages(t *testing.T) {
	for _, parkFirst := range []bool{true, false} {
		_, err := RunWith(2, RunConfig{Timeout: 100 * time.Millisecond}, func(c *Comm) {
			if c.Rank() == 0 {
				for parkFirst && c.m.ranks[1].block.Load() == 0 {
					time.Sleep(time.Millisecond) // until rank 1 is about to park
				}
				time.Sleep(20 * time.Millisecond)
				c.Send(1, 3, []float64{1, 2, 3, 4})
				c.Recv(1, 0) // never sent
				return
			}
			for !parkFirst && c.m.ranks[0].progress.Load() == 0 {
				time.Sleep(time.Millisecond) // until rank 0's message is queued
			}
			c.Recv(0, 9) // wrong tag: waits forever
		})
		var dead *DeadlockError
		if !errors.As(err, &dead) {
			t.Fatalf("parkFirst=%v: err %T (%v), want *DeadlockError", parkFirst, err, err)
		}
		inbox := 0
		if parkFirst {
			inbox = 1
		}
		want := RankWait{Rank: 1, Kind: BlockRecv, Peer: 0, Tag: 9, InboxPackets: inbox,
			Pending: []PendingEntry{{From: 0, Tag: 3, Msgs: 1, Words: 4}}}
		if i := slices.IndexFunc(dead.Waits, func(w RankWait) bool { return w.Rank == 1 }); i < 0 || !reflect.DeepEqual(dead.Waits[i], want) {
			t.Errorf("parkFirst=%v: waits %+v, want rank 1's to be %+v", parkFirst, dead.Waits, want)
		}
	}
}

func TestTraceConcurrentSenders(t *testing.T) {
	// Every rank sends to every other rank concurrently; the trace must
	// capture each logical send exactly once (run under -race in CI).
	const p = 8
	var tr sendLog
	rep, err := RunWith(p, RunConfig{Timeout: 5 * time.Second, Observer: tr.observe}, func(c *Comm) {
		for to := 0; to < p; to++ {
			if to != c.Rank() {
				c.Send(to, c.Rank(), []float64{float64(c.Rank())})
			}
		}
		for from := 0; from < p; from++ {
			if from != c.Rank() {
				c.Recv(from, from)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.sends
	if len(events) != p*(p-1) {
		t.Fatalf("traced %d send events, want %d", len(events), p*(p-1))
	}
	seen := make(map[[2]int]int)
	for _, e := range events {
		if e.Tag != e.From || e.Words != 1 {
			t.Errorf("event %+v has wrong tag or size", e)
		}
		seen[[2]int{e.From, e.To}]++
	}
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if from == to {
				continue
			}
			if seen[[2]int{from, to}] != 1 {
				t.Errorf("pair %d→%d traced %d times", from, to, seen[[2]int{from, to}])
			}
		}
	}
	if rep.MaxSentMsgs() != p-1 || rep.MaxRecvMsgs() != p-1 {
		t.Errorf("meters: sent %d recv %d msgs, want %d", rep.MaxSentMsgs(), rep.MaxRecvMsgs(), p-1)
	}
}

func TestExchangeMultiTagOrdering(t *testing.T) {
	// Interleaved send-then-receive streams on several tags between both
	// peers: per-(sender, tag) FIFO must hold for each direction
	// independently.
	const rounds = 30
	_, err := RunWith(2, RunConfig{Timeout: 5 * time.Second}, func(c *Comm) {
		next := map[int]int{0: 0, 1: 0, 2: 0}
		for i := 0; i < rounds; i++ {
			tag := i % 3
			c.Send(1-c.Rank(), tag, []float64{float64(tag), float64(next[tag])})
			got := c.Recv(1-c.Rank(), tag)
			if int(got[0]) != tag || int(got[1]) != next[tag] {
				t.Errorf("rank %d round %d tag %d: got %v, want seq %d",
					c.Rank(), i, tag, got, next[tag])
			}
			next[tag]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWireMetersMatchLogicalOnDirectTransport(t *testing.T) {
	// On the perfect wire with the direct transport, every logical
	// message is exactly one packet: wire and logical meters coincide and
	// overhead is zero.
	rep := mustRun(t, 4, func(c *Comm) {
		peer := c.Rank() ^ 1
		c.Send(peer, 0, make([]float64, 3+c.Rank()))
		c.Recv(peer, 0)
	})
	for i := 0; i < rep.P; i++ {
		if rep.WireSentWords[i] != rep.SentWords[i] || rep.WireSentMsgs[i] != rep.SentMsgs[i] ||
			rep.WireRecvWords[i] != rep.RecvWords[i] || rep.WireRecvMsgs[i] != rep.RecvMsgs[i] {
			t.Errorf("rank %d: wire meters diverge from logical on the direct transport", i)
		}
	}
	if rep.OverheadWords() != 0 {
		t.Errorf("OverheadWords = %d on a perfect wire", rep.OverheadWords())
	}
}

func TestReportStringAndMaxRecvMsgs(t *testing.T) {
	rep := &Report{
		P:         2,
		SentWords: []int64{10, 4},
		RecvWords: []int64{4, 10},
		SentMsgs:  []int64{2, 1},
		RecvMsgs:  []int64{1, 2},
	}
	if rep.MaxRecvMsgs() != 2 {
		t.Errorf("MaxRecvMsgs = %d", rep.MaxRecvMsgs())
	}
	s := rep.String()
	for _, frag := range []string{"P=2", "max sent 10w/2m", "max recv 10w/2m", "total 14w"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	if strings.Contains(s, "wire") {
		t.Errorf("String() = %q mentions wire meters that were not collected", s)
	}
	rep.WireSentWords = []int64{13, 4}
	rep.WireSentMsgs = []int64{4, 2}
	rep.WireRecvWords = []int64{4, 13}
	rep.WireRecvMsgs = []int64{2, 4}
	s = rep.String()
	for _, frag := range []string{"wire 17w", "+3w overhead", "6 packets"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
