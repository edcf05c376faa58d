package netwire

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestDeadPeerSendFailsFast is the regression test for the dial stall: a
// send to a dead peer used to pay the full synchronous dial timeout on
// EVERY send. The negative dial cache makes subsequent sends fail
// immediately until the backoff interval elapses, and redials once it has.
func TestDeadPeerSendFailsFast(t *testing.T) {
	var dials atomic.Int32
	nd, err := newNode("tcp", "127.0.0.1:0", 0, 2, func(peer int) (string, bool) {
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
	nd, err := newNode("tcp", "127.0.0.1:0", 0, 1, func(peer int) (string, bool) { return "", false })
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

// TestForeignFramesDropped is the regression test for the open data
// plane: a read loop used to queue every frame whose checksum verified.
// Under the reliable transport a frame from rank 99 of a 2-rank machine
// was acked and the run failed ("could not reach rank 1 (tag 1) after 40
// transmit attempts"); a frame addressed to rank 1 but written to rank 0
// entered rank 0's inbox as rank 1's message. Both are now refused at the socket, each
// reported once as an EventDrop, and the run keeps the clean run's
// result bits and logical meters under both transports.
func TestForeignFramesDropped(t *testing.T) {
	const p = 2
	for _, tc := range []struct {
		name      string
		transport machine.TransportFactory
	}{
		{"direct", nil},
		{"reliable", fault.Transport(fault.Plan{}, fault.ReliableOptions{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be, err := NewLoopback("tcp")
			if err != nil {
				t.Fatal(err)
			}
			defer be.Close()
			// run exchanges one vector each way; before its exchange rank
			// 0 calls inject.
			run := func(inject func(), observer func(machine.Event)) ([][]float64, *machine.Report) {
				got := make([][]float64, p)
				rep, err := machine.RunWith(p, machine.RunConfig{
					Timeout: 30 * time.Second, Backend: be, Transport: tc.transport,
					Observer: observer, WireEvents: observer != nil,
				}, func(c *machine.Comm) {
					me, peer := c.Rank(), 1-c.Rank()
					if me == 0 && inject != nil {
						inject()
					}
					c.Send(peer, 1, []float64{float64(me) + 0.5, float64(me) * 3})
					got[me] = c.Recv(peer, 1)
				})
				if err != nil {
					t.Fatal(err)
				}
				return got, rep
			}
			want, wantRep := run(nil, nil)

			var rec obs.Recorder
			record := rec.Observer()
			drops := make(chan struct{}, 2) // one per foreign frame
			observer := func(e machine.Event) {
				record(e)
				if e.Kind == machine.EventDrop {
					select { // an unexpected third drop must not block the reader
					case drops <- struct{}{}:
					default:
					}
				}
			}
			inject := func() {
				conn, err := net.Dial("tcp", be.nodes[0].addr())
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				var frames []byte
				for _, pkt := range []machine.Packet{
					{From: 99, To: 0, Tag: 1, Kind: machine.PacketData, Data: []float64{-1}},
					{From: 1, To: 1, Tag: 1, Kind: machine.PacketData, Data: []float64{-2, -2}},
				} {
					frames = AppendFrame(frames, pkt)
				}
				if _, err := conn.Write(frames); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 2; i++ {
					select {
					case <-drops:
					case <-time.After(5 * time.Second):
						t.Errorf("foreign frame %d not reported as dropped", i)
						return
					}
				}
			}
			got, rep := run(inject, observer)

			for r := range want {
				if !slices.Equal(got[r], want[r]) {
					t.Errorf("rank %d received %v, clean run %v", r, got[r], want[r])
				}
				if rep.SentWords[r] != wantRep.SentWords[r] || rep.SentMsgs[r] != wantRep.SentMsgs[r] ||
					rep.RecvWords[r] != wantRep.RecvWords[r] || rep.RecvMsgs[r] != wantRep.RecvMsgs[r] {
					t.Errorf("rank %d logical meters differ from the clean run", r)
				}
			}
			n := 0
			for _, e := range rec.Trace().Events {
				if e.Kind == machine.EventDrop {
					n++
				}
			}
			if n != 2 {
				t.Errorf("%d drop events, want 2 (one per foreign frame)", n)
			}
		})
	}
}
