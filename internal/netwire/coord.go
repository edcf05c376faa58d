package netwire

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
)

// Coordinator is the control-plane rendezvous of a distributed run: every
// rank process keeps one persistent connection to it. The coordinator
// collects registrations (building the portmap the ranks resolve each
// other through) and forwards lifecycle messages between the ranks and
// the embedding supervisor (internal/cluster), which owns the recovery
// policy. A rank whose control connection drops while registered is
// reported as down — that is how a kill -9 becomes a supervision event.
type Coordinator struct {
	p  int
	ln net.Listener

	mu     sync.Mutex
	conns  map[int]*ctlConn
	addrs  map[int]string
	closed bool

	events chan CtlMsg
	done   chan struct{}
	wg     sync.WaitGroup
}

// ctlConn is one rank's registered control connection; writes are
// serialized per connection.
type ctlConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *json.Encoder
}

func (cc *ctlConn) send(m CtlMsg) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.enc.Encode(m)
}

// NewCoordinator listens for p rank registrations on addr ("tcp" or
// "unix" network).
func NewCoordinator(network, addr string, p int) (*Coordinator, error) {
	switch network {
	case "tcp", "unix":
	default:
		return nil, fmt.Errorf("netwire: coordinator network %q (want tcp or unix)", network)
	}
	if p < 1 {
		return nil, fmt.Errorf("netwire: coordinator for %d ranks", p)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("netwire: coordinator listen %s %s: %w", network, addr, err)
	}
	co := &Coordinator{
		p:      p,
		ln:     ln,
		conns:  make(map[int]*ctlConn),
		addrs:  make(map[int]string),
		events: make(chan CtlMsg, 64),
		done:   make(chan struct{}),
	}
	co.wg.Add(1)
	go co.acceptLoop()
	return co, nil
}

// Addr returns the control endpoint ranks dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Events delivers rank-originated control messages (hello, ready, done,
// quiesced) plus synthesized "down" events when a registered rank's
// connection drops. The supervisor must keep draining it.
func (co *Coordinator) Events() <-chan CtlMsg { return co.events }

func (co *Coordinator) emit(ev CtlMsg) {
	select {
	case co.events <- ev:
	case <-co.done:
	}
}

func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		co.wg.Add(1)
		go co.serve(c)
	}
}

// serve handles one rank connection: a hello registers it, then messages
// flow until the connection dies. A registered rank's death is a down
// event; a connection replaced by a newer hello for the same rank dies
// silently.
func (co *Coordinator) serve(c net.Conn) {
	defer co.wg.Done()
	defer c.Close()
	dec := json.NewDecoder(c)
	var hello CtlMsg
	if err := dec.Decode(&hello); err != nil || hello.Type != "hello" || hello.Rank < 0 || hello.Rank >= co.p {
		return
	}
	rank := hello.Rank
	cc := &ctlConn{conn: c, enc: json.NewEncoder(c)}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	if old := co.conns[rank]; old != nil {
		old.conn.Close()
	}
	co.conns[rank] = cc
	co.addrs[rank] = hello.Addr
	co.mu.Unlock()
	co.emit(hello)

	for {
		var m CtlMsg
		if err := dec.Decode(&m); err != nil {
			break
		}
		m.Rank = rank // never trust a relabeled rank
		switch m.Type {
		case "ready", "done", "quiesced":
			co.emit(m)
		}
	}

	co.mu.Lock()
	registered := co.conns[rank] == cc
	if registered {
		delete(co.conns, rank)
	}
	closed := co.closed
	co.mu.Unlock()
	if registered && !closed {
		co.emit(CtlMsg{Type: "down", Rank: rank})
	}
}

func (co *Coordinator) snapshotLocked() []*ctlConn {
	out := make([]*ctlConn, 0, len(co.conns))
	for _, cc := range co.conns {
		out = append(out, cc)
	}
	return out
}

// broadcast sends m to every registered rank; a send that fails is
// ignored (the reader will surface the down event).
func (co *Coordinator) broadcast(m CtlMsg) {
	co.mu.Lock()
	conns := co.snapshotLocked()
	co.mu.Unlock()
	for _, cc := range conns {
		cc.send(m)
	}
}

// Portmap returns the current rank → data-address map; ok is false until
// all p ranks have said hello.
func (co *Coordinator) Portmap() ([]string, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.addrs) < co.p {
		return nil, false
	}
	addrs := make([]string, co.p)
	for r, a := range co.addrs {
		addrs[r] = a
	}
	return addrs, true
}

// Resume broadcasts the (re)start order: adopt the portmap, restore state
// as of boundary iter (0 seeds fresh), reply ready. All p ranks must be
// registered.
func (co *Coordinator) Resume(epoch int64, iter int) error {
	addrs, ok := co.Portmap()
	if !ok {
		return fmt.Errorf("netwire: resume before all %d ranks registered", co.p)
	}
	co.broadcast(CtlMsg{Type: "resume", Epoch: epoch, Iter: iter, Addrs: addrs})
	return nil
}

// Op dispatches op iter of the epoch to every rank.
func (co *Coordinator) Op(epoch int64, iter int) {
	co.broadcast(CtlMsg{Type: "op", Epoch: epoch, Iter: iter})
}

// AbortEpoch fences the given epoch: survivors unwind, retire their
// machines, and report quiesced.
func (co *Coordinator) AbortEpoch(epoch int64) { co.broadcast(CtlMsg{Type: "abort", Epoch: epoch}) }

// Stop orders a clean shutdown of every rank.
func (co *Coordinator) Stop() { co.broadcast(CtlMsg{Type: "stop"}) }

// Close shuts the listener and every control connection. Safe to call
// more than once.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	conns := co.snapshotLocked()
	co.conns = map[int]*ctlConn{}
	co.mu.Unlock()
	close(co.done)
	co.ln.Close()
	for _, cc := range conns {
		cc.conn.Close()
	}
	co.wg.Wait()
	return nil
}
