package netwire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

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
