package netwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// dialTimeout bounds a lazy dial; a peer that cannot be reached within it
// is treated as down and the packet is dropped (lossy-close semantics).
const dialTimeout = 5 * time.Second

// Failed dials are cached so a dead peer costs one dial timeout, not one
// per send: while the cache entry is live every send to that peer fails
// immediately, and the retry interval doubles from dialRetryMin up to
// dialRetryMax. The entry is keyed by the resolved address, so a
// respawned peer (new address in the portmap) is dialed right away.
const (
	dialRetryMin = 50 * time.Millisecond
	dialRetryMax = time.Second
)

var errNodeClosed = errors.New("netwire: node closed")

// resolver maps a peer rank to its current socket address. A static map
// for Loopback; the live portmap for a distributed Client, so a respawned
// rank's new address takes effect on the next dial.
type resolver func(peer int) (string, bool)

// dialer dials one peer connection; injectable so tests can model dead or
// slow peers without real unroutable addresses.
type dialer func(network, addr string, timeout time.Duration) (net.Conn, error)

// node is one rank's socket endpoint: a listener whose inbound
// connections decode frames into the rank's packet queue, plus a cache of
// lazily dialed persistent outbound connections, one per peer.
type node struct {
	network string // "tcp" or "unix"
	rank    int
	size    int // ranks in the machine: a frame from outside [0, size) is refused
	ln      net.Listener
	resolve resolver
	dial    dialer
	chaos   *fault.Decider // nil: faithful writes (see chaosSend)
	chaosMu sync.Mutex     // one chaos decision and held slot at a time
	held    *frameWrite    // the frame chaos holds back for reordering
	inbox   *machine.PacketQueue
	onDrop  atomic.Pointer[func(machine.Packet, string)]

	mu       sync.Mutex
	conns    map[int]*peerConn
	down     map[int]*dialFailure
	accepted map[net.Conn]struct{}
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// peerConn is one persistent outbound connection. Writes are serialized
// under mu; buf holds the frame being assembled so steady-state sends
// stop allocating once it reaches the high-water frame size.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	addr string
	buf  []byte
}

// dialFailure is the negative dial cache entry for one peer.
type dialFailure struct {
	addr    string        // resolved address the dial failed against
	until   time.Time     // no redial before this
	backoff time.Duration // next entry's TTL (doubles up to dialRetryMax)
	err     error         // the dial error, replayed to fast-failed sends
}

// newNode listens on addr for rank of a size-rank machine and starts the
// accept loop.
func newNode(network, addr string, rank, size int, resolve resolver) (*node, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("netwire: rank %d listen %s %s: %w", rank, network, addr, err)
	}
	nd := &node{
		network:  network,
		rank:     rank,
		size:     size,
		ln:       ln,
		resolve:  resolve,
		dial:     net.DialTimeout,
		conns:    make(map[int]*peerConn),
		down:     make(map[int]*dialFailure),
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
		inbox:    machine.NewPacketQueue(),
	}
	nd.wg.Add(1)
	go nd.acceptLoop()
	return nd, nil
}

func (nd *node) addr() string { return nd.ln.Addr().String() }

// reportDrop surfaces a packet the socket layer lost — dial failure,
// write error, injected fault — to the registered hook (the machine's
// wire-event stream).
func (nd *node) reportDrop(pkt machine.Packet, reason string) {
	if fn := nd.onDrop.Load(); fn != nil {
		(*fn)(pkt, reason)
	}
}

func (nd *node) acceptLoop() {
	defer nd.wg.Done()
	for {
		c, err := nd.ln.Accept()
		if err != nil {
			return // listener closed
		}
		nd.mu.Lock()
		if nd.closed {
			nd.mu.Unlock()
			c.Close()
			return
		}
		nd.accepted[c] = struct{}{}
		nd.wg.Add(1)
		nd.mu.Unlock()
		go nd.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection into the inbox. Any
// framing error — torn frame, checksum mismatch, reset — drops the whole
// connection: the stream past a corrupt length prefix is garbage, and a
// reliable transport (or the recovery supervisor) owns re-delivery. A
// well-formed frame that is not for this rank, or not from a rank of the
// machine, is dropped alone and reported: the checksum proves only that
// the bytes are intact, not who wrote them, and the machine indexes its
// per-sender state by From.
func (nd *node) readLoop(c net.Conn) {
	defer nd.wg.Done()
	defer func() {
		nd.mu.Lock()
		delete(nd.accepted, c)
		nd.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var scratch []byte
	for {
		pkt, err := ReadFrame(br, &scratch)
		if err != nil {
			return
		}
		select {
		case <-nd.done:
			return
		default:
		}
		if pkt.To != nd.rank || pkt.From < 0 || pkt.From >= nd.size {
			nd.reportDrop(pkt, "misaddressed frame")
			continue
		}
		nd.inbox.Push(pkt)
	}
}

// send frames pkt onto the persistent connection to rank to, dialing it
// first if needed. The caller treats any error as a silent drop. With a
// chaos plan attached the write goes through the fault layer, which may
// drop, duplicate, reorder, corrupt or tear it and reports what it loses.
func (nd *node) send(to int, pkt machine.Packet) error {
	if nd.chaos != nil {
		nd.chaosSend(to, pkt)
		return nil
	}
	pc, err := nd.conn(to)
	if err != nil {
		return err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.buf = AppendFrame(pc.buf[:0], pkt)
	if _, err := pc.conn.Write(pc.buf); err != nil {
		nd.invalidate(to, pc)
		return err
	}
	return nil
}

// conn returns the cached connection to rank to, redialing when the cache
// is empty or the peer's address changed (its process was respawned). A
// recent dial failure for the same address fails fast instead of paying
// another synchronous dial timeout.
func (nd *node) conn(to int) (*peerConn, error) {
	addr, ok := nd.resolve(to)
	if !ok {
		return nil, fmt.Errorf("netwire: no address for rank %d", to)
	}
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, errNodeClosed
	}
	if pc := nd.conns[to]; pc != nil && pc.addr == addr {
		nd.mu.Unlock()
		return pc, nil
	}
	if df := nd.down[to]; df != nil && df.addr == addr && time.Now().Before(df.until) {
		nd.mu.Unlock()
		return nil, fmt.Errorf("netwire: rank %d down (dial backoff): %w", to, df.err)
	}
	nd.mu.Unlock()

	c, err := nd.dial(nd.network, addr, dialTimeout)
	if err != nil {
		nd.mu.Lock()
		df := nd.down[to]
		if df == nil || df.addr != addr {
			df = &dialFailure{addr: addr, backoff: dialRetryMin}
			nd.down[to] = df
		} else if df.backoff < dialRetryMax {
			df.backoff *= 2
			if df.backoff > dialRetryMax {
				df.backoff = dialRetryMax
			}
		}
		df.err = err
		df.until = time.Now().Add(df.backoff)
		nd.mu.Unlock()
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over batching: frames are whole writes
	}
	pc := &peerConn{conn: c, addr: addr}

	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		c.Close()
		return nil, errNodeClosed
	}
	delete(nd.down, to) // the peer answered; drop any failure entry
	if cur := nd.conns[to]; cur != nil {
		if cur.addr == addr {
			// A concurrent sender won the dial race; use its connection.
			nd.mu.Unlock()
			c.Close()
			return cur, nil
		}
		cur.conn.Close() // stale address: the peer moved
	}
	nd.conns[to] = pc
	nd.mu.Unlock()
	return pc, nil
}

// invalidate evicts a failed connection so the next send redials.
func (nd *node) invalidate(to int, pc *peerConn) {
	nd.mu.Lock()
	if nd.conns[to] == pc {
		delete(nd.conns, to)
	}
	nd.mu.Unlock()
	pc.conn.Close()
}

// close shuts the listener, every connection in both directions, and
// waits for the reader goroutines to exit.
func (nd *node) close() {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return
	}
	nd.closed = true
	conns := nd.conns
	nd.conns = map[int]*peerConn{}
	accepted := make([]net.Conn, 0, len(nd.accepted))
	for c := range nd.accepted {
		accepted = append(accepted, c)
	}
	nd.mu.Unlock()
	close(nd.done)
	nd.ln.Close()
	for _, pc := range conns {
		pc.conn.Close()
	}
	for _, c := range accepted {
		c.Close()
	}
	nd.wg.Wait()
}

// Wire is one rank's raw socket endpoint (machine.BackendWire). Its wire
// meters price packets at their framed size via PacketCost, and it reports
// every packet the socket layer loses through OnDrop.
type Wire struct {
	nd *node
}

// Deliver frames pkt toward pkt.To. A send the network refuses — peer
// dead, address unknown, connection reset — is dropped silently: the
// socket layer is a lossy wire, and loss is resolved above it.
func (w *Wire) Deliver(pkt machine.Packet) {
	if pkt.To == w.nd.rank {
		// A socket-crossing packet gets a freshly allocated payload in
		// DecodeFrame; a self-delivered one must match, or it would alias
		// the sender's buffer — which payload pooling may hand back to the
		// sender and mutate while the packet still sits in the inbox.
		if len(pkt.Data) > 0 {
			pkt.Data = append([]float64(nil), pkt.Data...)
		}
		w.nd.inbox.Push(pkt)
		return
	}
	if err := w.nd.send(pkt.To, pkt); err != nil {
		w.nd.reportDrop(pkt, err.Error())
	}
}

// OnDrop registers fn to be called for every packet the socket layer
// loses, with a short reason.
func (w *Wire) OnDrop(fn func(pkt machine.Packet, reason string)) {
	if fn == nil {
		w.nd.onDrop.Store(nil)
		return
	}
	w.nd.onDrop.Store(&fn)
}

// Pull blocks for the next inbound packet, parked on an empty inbox until
// one from (from, tag) arrives; a closed abort channel wakes it with ok ==
// false.
func (w *Wire) Pull(from, tag int, abort <-chan struct{}) (machine.Packet, bool) {
	return w.nd.inbox.Pull(from, tag, abort)
}

// PullTimeout is Pull with a deadline.
func (w *Wire) PullTimeout(d time.Duration) (machine.Packet, bool) {
	return w.nd.inbox.PullTimeout(d)
}

// Queued returns the decoded-but-unpulled packets.
func (w *Wire) Queued() []machine.Packet { return w.nd.inbox.Queued() }

// PacketCost prices pkt at its framed size in 8-byte words, so wire
// meters count what crossed the socket.
func (w *Wire) PacketCost(pkt machine.Packet) int64 { return FrameWords(len(pkt.Data)) }
