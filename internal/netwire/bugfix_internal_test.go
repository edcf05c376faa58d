package netwire

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestBarrierSurvivesReleaseFlood is the regression test for the
// release-channel overflow: a coordinator that aborted many epochs after
// this rank arrived at their barriers floods the client with stale
// releases. The buggy readLoop dropped the INCOMING message when the
// buffer was full — so the one release that mattered, the current
// epoch's, was the one lost, and Barrier hung forever. The fix evicts the
// oldest buffered entry instead.
func TestBarrierSurvivesReleaseFlood(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		dec := json.NewDecoder(c)
		var hello ctlMsg
		if err := dec.Decode(&hello); err != nil || hello.Type != "hello" {
			return
		}
		enc := json.NewEncoder(c)
		// Far more stale releases than the buffer holds, then the live one.
		for i := 0; i < 200; i++ {
			enc.Encode(ctlMsg{Type: "release", Epoch: 1, Gen: i + 1})
		}
		enc.Encode(ctlMsg{Type: "release", Epoch: 5, Gen: 42})
		enc.Encode(ctlMsg{Type: "go"})
		io.Copy(io.Discard, c) // keep the control connection open
	}()

	cl, err := NewClient("tcp", ln.Addr().String(), 0, 1, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The "go" event proves readLoop has sequenced past every release
	// above — whatever it was going to drop is already dropped.
	select {
	case ev := <-cl.Events():
		if ev.Type != "go" {
			t.Fatalf("event %q, want go", ev.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no go event")
	}

	type result struct {
		gen int
		ok  bool
	}
	resCh := make(chan result, 1)
	go func() {
		g, ok := cl.wire.Barrier(5, nil)
		resCh <- result{g, ok}
	}()
	select {
	case r := <-resCh:
		if !r.ok || r.gen != 42 {
			t.Fatalf("Barrier = (%d, %v), want (42, true)", r.gen, r.ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Barrier starved: the current epoch's release was evicted by the stale flood")
	}
}

// TestAbortEpochClearsArrivals is the regression test for the coordinator
// barrier-state leak: a barrier message racing AbortEpoch used to
// re-create the aborted epoch's arrival set, which nothing ever deleted —
// one dead map entry per crash, forever. The epoch fence discards such
// stragglers outright.
func TestAbortEpochClearsArrivals(t *testing.T) {
	co, err := NewCoordinator("tcp", "127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	for e := int64(1); e <= 8; e++ {
		co.arrive(0, e)
		co.arrive(1, e)
		co.AbortEpoch(e)
		co.arrive(2, e) // straggler: must not resurrect the aborted epoch
	}
	co.mu.Lock()
	leaked := len(co.arrivals)
	co.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d aborted epochs leaked barrier arrival state", leaked)
	}

	// A fresh epoch past the fence still completes its barrier.
	co.arrive(0, 9)
	co.arrive(1, 9)
	co.arrive(2, 9)
	co.mu.Lock()
	gen, pending := co.gen, len(co.arrivals)
	co.mu.Unlock()
	if gen != 1 || pending != 0 {
		t.Fatalf("post-fence barrier: gen=%d pending=%d, want gen=1 pending=0", gen, pending)
	}
}

// TestDeadPeerSendFailsFast is the regression test for the dial stall: a
// send to a dead peer used to pay the full synchronous dial timeout on
// EVERY send. The negative dial cache makes subsequent sends fail
// immediately until the backoff interval elapses, and redials once it has.
func TestDeadPeerSendFailsFast(t *testing.T) {
	var dials atomic.Int32
	nd, err := newNode("tcp", "127.0.0.1:0", 0, func(peer int) (string, bool) {
		return "127.0.0.1:9", true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.close()
	nd.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		time.Sleep(200 * time.Millisecond) // a slow, doomed dial
		return nil, errors.New("peer dead")
	}

	pkt := machine.Packet{From: 0, To: 1, Kind: machine.PacketData, Data: []float64{1}}
	if err := nd.send(1, pkt); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	start := time.Now()
	if err := nd.send(1, pkt); err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("second send to dead peer took %v, want an immediate cached failure", d)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials for two sends, want 1 (cached failure)", got)
	}

	// Past the initial backoff the peer is probed again.
	time.Sleep(dialRetryMin + 20*time.Millisecond)
	nd.send(1, pkt)
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials after backoff expiry, want 2 (redial)", got)
	}
}

// TestSelfDeliveryCopiesPayload is the regression test for the
// self-delivery aliasing bug: a packet delivered to the sender's own rank
// used to enter the inbox still referencing the sender's buffer, which
// payload pooling could hand back and overwrite while the packet waited.
// Socket-crossing packets never alias (DecodeFrame allocates), so
// self-delivery must copy to match.
func TestSelfDeliveryCopiesPayload(t *testing.T) {
	nd, err := newNode("tcp", "127.0.0.1:0", 0, func(peer int) (string, bool) { return "", false })
	if err != nil {
		t.Fatal(err)
	}
	defer nd.close()
	w := &Wire{nd: nd}

	data := []float64{1, 2, 3}
	w.Deliver(machine.Packet{From: 0, To: 0, Tag: 9, Kind: machine.PacketData, Data: data, Recycle: true})
	for i := range data {
		data[i] = -777 // the pool recycled the buffer and a later send scribbled on it
	}
	pkt, ok := w.PullTimeout(time.Second)
	if !ok {
		t.Fatal("self-delivered packet never arrived")
	}
	want := []float64{1, 2, 3}
	for i, v := range want {
		if pkt.Data[i] != v {
			t.Fatalf("payload aliased the sender's buffer: got %v, want %v", pkt.Data, want)
		}
	}
}
