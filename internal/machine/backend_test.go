package machine

import (
	"strings"
	"testing"
	"time"
)

// TestExplicitSimBackend runs a ping over an explicitly-selected
// SimBackend and checks the report matches the default path exactly.
func TestExplicitSimBackend(t *testing.T) {
	body := func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			if got := c.Recv(0, 7); len(got) != 3 {
				t.Errorf("recv %v", got)
			}
		}
	}
	rep, err := RunWith(2, RunConfig{Timeout: 10 * time.Second, Backend: NewSimBackend()}, body)
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunWith(2, RunConfig{Timeout: 10 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SentWords[0] != def.SentWords[0] || rep.WireSentWords[0] != def.WireSentWords[0] {
		t.Errorf("backend run %+v != default run %+v", rep, def)
	}
}

// TestSimBackendSizeMismatch: one SimBackend serves one machine size.
func TestSimBackendSizeMismatch(t *testing.T) {
	be := NewSimBackend()
	if _, err := be.NewWire(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := be.NewWire(0, 3); err == nil || !strings.Contains(err.Error(), "sized for") {
		t.Errorf("want size-mismatch error, got %v", err)
	}
}

// TestPacketQueueAbortWake: a blocked Pull wakes with ok == false when the
// abort channel closes, and PullTimeout expires on silence.
func TestPacketQueueAbortWake(t *testing.T) {
	q := NewPacketQueue()
	abort := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pull(-1, 0, abort)
		done <- ok
	}()
	close(abort)
	select {
	case ok := <-done:
		if ok {
			t.Error("aborted Pull returned a packet")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted Pull never woke")
	}
	if _, ok := q.PullTimeout(time.Millisecond); ok {
		t.Error("PullTimeout on empty queue returned a packet")
	}
	q.Push(Packet{Tag: 9})
	if pkt, ok := q.PullTimeout(time.Second); !ok || pkt.Tag != 9 {
		t.Errorf("PullTimeout got %+v ok=%v", pkt, ok)
	}
}
