package machine

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// mustRun routes every plain test run through the one RunWith entry
// point, with errors fatal and a generous watchdog.
func mustRun(tb testing.TB, p int, body func(c *Comm)) *Report {
	tb.Helper()
	rep, err := RunWith(p, RunConfig{Timeout: 30 * time.Second}, body)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// sendLog is a RunConfig.Observer collecting the logical send events of a
// run; safe for concurrent ranks. Read sends only after the run returns.
type sendLog struct {
	mu    sync.Mutex
	sends []Event
}

func (l *sendLog) observe(e Event) {
	if e.Kind == EventSend && !e.Wire {
		l.mu.Lock()
		l.sends = append(l.sends, e)
		l.mu.Unlock()
	}
}

// TestRunWithEntryPoint covers the single run entry point in its common
// configurations: bare, watchdog-armed, and with a trace observer.
func TestRunWithEntryPoint(t *testing.T) {
	body := func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2})
		} else {
			c.Recv(0, 0)
		}
	}
	if rep, err := RunWith(2, RunConfig{}, body); err != nil || rep.SentWords[0] != 2 {
		t.Errorf("RunWith: rep %v err %v", rep, err)
	}
	if rep, err := RunWith(2, RunConfig{Timeout: time.Second}, body); err != nil || rep.SentWords[0] != 2 {
		t.Errorf("RunWith timeout: rep %v err %v", rep, err)
	}
	var tr sendLog
	if rep, err := RunWith(2, RunConfig{Timeout: time.Second, Observer: tr.observe}, body); err != nil || rep.SentWords[0] != 2 {
		t.Errorf("RunWith traced: rep %v err %v", rep, err)
	}
	if len(tr.sends) != 1 {
		t.Errorf("RunWith observer saw %d sends, want 1", len(tr.sends))
	}
}

func TestPingPong(t *testing.T) {
	rep := mustRun(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
			got := c.Recv(1, 0)
			if len(got) != 2 || got[0] != 4 {
				t.Errorf("rank 0 received %v", got)
			}
		} else {
			got := c.Recv(0, 0)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
			c.Send(0, 0, []float64{4, 5})
		}
	})
	if rep.SentWords[0] != 3 || rep.SentWords[1] != 2 {
		t.Errorf("sent words %v", rep.SentWords)
	}
	if rep.RecvWords[0] != 2 || rep.RecvWords[1] != 3 {
		t.Errorf("recv words %v", rep.RecvWords)
	}
	if rep.SentMsgs[0] != 1 || rep.RecvMsgs[1] != 1 {
		t.Errorf("msg counts %v %v", rep.SentMsgs, rep.RecvMsgs)
	}
}

func TestMessageIsolation(t *testing.T) {
	// Distributed memory: mutating the sent buffer after Send must not
	// affect what the receiver sees.
	mustRun(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1
		} else {
			got := c.Recv(0, 0)
			if got[0] != 42 {
				t.Errorf("received %v after sender mutation", got)
			}
		}
	})
}

func TestTagsDisambiguate(t *testing.T) {
	// Receive tags out of arrival order.
	mustRun(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{7})
			c.Send(1, 8, []float64{8})
		} else {
			if got := c.Recv(0, 8); got[0] != 8 {
				t.Errorf("tag 8 got %v", got)
			}
			if got := c.Recv(0, 7); got[0] != 7 {
				t.Errorf("tag 7 got %v", got)
			}
		}
	})
}

// TestFIFOPerSenderTag: messages from one (source, tag) are received in
// send order, whether each meets its Recv as it arrives or all of them
// wait held, behind a later tag the receiver takes first.
func TestFIFOPerSenderTag(t *testing.T) {
	for _, heldFirst := range []bool{false, true} {
		mustRun(t, 2, func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < 10; i++ {
					c.Send(1, 0, []float64{float64(i)})
				}
				c.Send(1, 1, nil)
				return
			}
			if heldFirst {
				c.Recv(0, 1)
			}
			for i := 0; i < 10; i++ {
				if got := c.Recv(0, 0); got[0] != float64(i) {
					t.Errorf("heldFirst=%v: message %d got %v", heldFirst, i, got)
				}
			}
			if !heldFirst {
				c.Recv(0, 1)
			}
		})
	}
}

func TestExchange(t *testing.T) {
	rep := mustRun(t, 4, func(c *Comm) {
		peer := c.Rank() ^ 1
		c.Send(peer, 0, []float64{float64(c.Rank())})
		got := c.Recv(peer, 0)
		if got[0] != float64(peer) {
			t.Errorf("rank %d exchanged, got %v", c.Rank(), got)
		}
	})
	if rep.MaxWords() != 1 {
		t.Errorf("MaxWords = %d", rep.MaxWords())
	}
	if rep.TotalSentWords() != 4 {
		t.Errorf("TotalSentWords = %d", rep.TotalSentWords())
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Rounds run back to back with no barrier between them: each round's
	// tag keeps its messages apart from the next round's, so no message
	// crosses into another round.
	const p = 8
	mustRun(t, p, func(c *Comm) {
		for round := 0; round < 5; round++ {
			peer := (c.Rank() + 1 + round) % p
			if peer != c.Rank() {
				c.Send(peer, round, []float64{float64(round*100 + c.Rank())})
				from := (c.Rank() - 1 - round + 2*p) % p
				got := c.Recv(from, round)
				if int(got[0]) != round*100+from {
					t.Errorf("round %d rank %d got %v", round, c.Rank(), got)
				}
			}
		}
	})
}

func TestConservation(t *testing.T) {
	// Total sent must equal total received in any completed run.
	rep := mustRun(t, 6, func(c *Comm) {
		for to := 0; to < c.Size(); to++ {
			if to != c.Rank() {
				c.Send(to, 0, make([]float64, c.Rank()+1))
			}
		}
		for from := 0; from < c.Size(); from++ {
			if from != c.Rank() {
				c.Recv(from, 0)
			}
		}
	})
	var sent, recv int64
	for i := 0; i < rep.P; i++ {
		sent += rep.SentWords[i]
		recv += rep.RecvWords[i]
	}
	if sent != recv {
		t.Errorf("sent %d != received %d", sent, recv)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, err := RunWith(2, RunConfig{Timeout: time.Second}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, 0, nil)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRangeSendPanics(t *testing.T) {
	_, err := RunWith(2, RunConfig{Timeout: time.Second}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 0, nil)
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := RunWith(2, RunConfig{Timeout: 100 * time.Millisecond}, func(c *Comm) {
		c.Recv(1-c.Rank(), 0) // both wait forever
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadP(t *testing.T) {
	if _, err := RunWith(0, RunConfig{Timeout: 0}, func(c *Comm) {}); err == nil {
		t.Fatal("P=0 accepted")
	}
}

func TestCountersVisibleMidRun(t *testing.T) {
	mustRun(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 5))
			if m := c.Meters(); m.SentWords != 5 || m.SentMsgs != 1 {
				t.Errorf("mid-run counters: %d words %d msgs", m.SentWords, m.SentMsgs)
			}
		} else {
			c.Recv(0, 0)
			if m := c.Meters(); m.RecvWords != 5 {
				t.Errorf("mid-run recv words: %d", m.RecvWords)
			}
		}
	})
}

func TestReportAggregates(t *testing.T) {
	rep := &Report{
		P:         3,
		SentWords: []int64{5, 9, 2},
		RecvWords: []int64{10, 1, 5},
		SentMsgs:  []int64{1, 3, 2},
		RecvMsgs:  []int64{2, 2, 2},
	}
	if rep.MaxSentWords() != 9 {
		t.Errorf("MaxSentWords = %d", rep.MaxSentWords())
	}
	if rep.MaxRecvWords() != 10 {
		t.Errorf("MaxRecvWords = %d", rep.MaxRecvWords())
	}
	if rep.MaxWords() != 10 {
		t.Errorf("MaxWords = %d", rep.MaxWords())
	}
	if rep.TotalSentWords() != 16 {
		t.Errorf("TotalSentWords = %d", rep.TotalSentWords())
	}
	if rep.MaxSentMsgs() != 3 {
		t.Errorf("MaxSentMsgs = %d", rep.MaxSentMsgs())
	}
}

func TestManyRanksStress(t *testing.T) {
	// A ring reduction across 64 ranks; checks no lost or duplicated
	// messages at scale.
	const p = 64
	mustRun(t, p, func(c *Comm) {
		sum := float64(c.Rank())
		for step := 0; step < p-1; step++ {
			to := (c.Rank() + 1) % p
			from := (c.Rank() - 1 + p) % p
			c.Send(to, step, []float64{sum})
			sum += c.Recv(from, step)[0] - float64(c.Rank()) // accumulate ring values
			// simpler: track incoming value only
		}
	})
	// The arithmetic above is intentionally loose; the real assertion is
	// that the run completes without deadlock or loss. A strict ring
	// all-reduce correctness test follows.
	rep := mustRun(t, p, func(c *Comm) {
		val := float64(c.Rank() + 1)
		acc := val
		cur := val
		for step := 0; step < p-1; step++ {
			to := (c.Rank() + 1) % p
			from := (c.Rank() - 1 + p) % p
			c.Send(to, step, []float64{cur})
			cur = c.Recv(from, step)[0]
			acc += cur
		}
		want := float64(p*(p+1)) / 2
		if math.Abs(acc-want) > 1e-9 {
			t.Errorf("rank %d: ring sum %g, want %g", c.Rank(), acc, want)
		}
	})
	if rep.MaxSentMsgs() != p-1 {
		t.Errorf("MaxSentMsgs = %d, want %d", rep.MaxSentMsgs(), p-1)
	}
}

// BenchmarkExchange times the message path on one resident machine of
// P = 30 ranks. Each round every rank posts a 4-word message to each of
// its 29 peers and then receives from each in rank order — the
// sends-first pattern of the session exchange, so most messages wait in
// a held list before their receive. It reports time and allocations per
// message; ns/op and allocs/op are per round of 870 messages.
func BenchmarkExchange(b *testing.B) {
	const p, words = 30, 4
	start := make([]chan struct{}, p) // a token runs a round; close ends the body
	for r := range start {
		start[r] = make(chan struct{})
	}
	done := make(chan struct{}, p)
	h, err := StartWith(p, RunConfig{}, func(c *Comm) {
		me := c.Rank()
		src := make([]float64, words)
		dst := make([]float64, words)
		ok := false
		wait := func() { _, ok = <-start[me] }
		for {
			if c.AwaitHost(wait); !ok {
				return
			}
			for to := 0; to < p; to++ {
				if to != me {
					c.Send(to, 0, src)
				}
			}
			for from := 0; from < p; from++ {
				if from != me {
					c.RecvInto(from, 0, dst)
				}
			}
			done <- struct{}{}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	round := func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	round() // warm-up: payload pools and held lists reach their size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	msgs := float64(b.N * p * (p - 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
	for _, ch := range start {
		close(ch)
	}
	if _, err := h.Wait(); err != nil {
		b.Fatal(err)
	}
}
