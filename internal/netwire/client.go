package netwire

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/machine"
)

// Client is one rank process's backend in a distributed run: a data-plane
// node (frames on sockets, like Loopback but hosting a single rank) plus
// a persistent control connection to the Coordinator. It implements
// machine.Backend for a machine whose LocalRanks is exactly this rank.
type Client struct {
	rank int
	size int
	dir  string // unix socket directory, "" for tcp

	nd   *node
	wire *Wire

	ctl  net.Conn
	wmu  sync.Mutex // serializes control-plane writes
	enc  *json.Encoder
	port atomic.Pointer[[]string] // adopted portmap

	events chan CtlMsg // resume / op / abort / stop, for the rank runtime
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// ClientOptions configures a rank's data plane beyond the loopback
// defaults: where to bind, and an optional socket-level fault plan.
type ClientOptions struct {
	// Bind is the local address ("host" or "host:port") the rank's data
	// listener binds; empty means 127.0.0.1 with an ephemeral port. A
	// bare host gets an ephemeral port. The bound listener address is
	// what the coordinator's portmap advertises to peers. tcp only;
	// ignored for unix.
	Bind string
	// FaultPlan attaches seeded socket-level chaos (see fault.Plan) to
	// every outbound data frame. An inactive plan attaches nothing.
	FaultPlan fault.Plan
}

// NewClient creates rank's data listener, dials the coordinator at
// ctlAddr, and registers with hello. network is "tcp" or "unix"; for
// "unix" the data socket lives in a fresh temporary directory. The zero
// ClientOptions binds the loopback defaults with no fault plan.
func NewClient(network, ctlAddr string, rank, size int, opt ClientOptions) (*Client, error) {
	switch network {
	case "tcp", "unix":
	default:
		return nil, fmt.Errorf("netwire: client network %q (want tcp or unix)", network)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("netwire: client rank %d of %d", rank, size)
	}
	cl := &Client{
		rank:   rank,
		size:   size,
		events: make(chan CtlMsg, 64),
		done:   make(chan struct{}),
	}
	listen := listenAddr(opt.Bind)
	if network == "unix" {
		dir, err := os.MkdirTemp("", "netwire")
		if err != nil {
			return nil, err
		}
		cl.dir = dir
		listen = filepath.Join(dir, fmt.Sprintf("r%d.sock", rank))
	}
	nd, err := newNode(network, listen, rank, size, cl.resolve)
	if err != nil {
		if cl.dir != "" {
			os.RemoveAll(cl.dir)
		}
		return nil, err
	}
	nd.chaos = fault.NewDecider(opt.FaultPlan, rank)
	cl.nd = nd
	cl.wire = &Wire{nd: nd}

	ctl, err := net.DialTimeout(network, ctlAddr, dialTimeout)
	if err != nil {
		cl.nd.close()
		if cl.dir != "" {
			os.RemoveAll(cl.dir)
		}
		return nil, fmt.Errorf("netwire: rank %d dial coordinator %s: %w", rank, ctlAddr, err)
	}
	cl.ctl = ctl
	cl.enc = json.NewEncoder(ctl)
	if err := cl.Report(CtlMsg{Type: "hello", Addr: nd.addr()}); err != nil {
		cl.Close()
		return nil, err
	}
	cl.wg.Add(1)
	go cl.readLoop()
	return cl, nil
}

// listenAddr normalizes a tcp bind spec: empty means loopback ephemeral,
// a bare host gets an ephemeral port, host:port passes through.
func listenAddr(bind string) string {
	if bind == "" {
		return "127.0.0.1:0"
	}
	if _, _, err := net.SplitHostPort(bind); err == nil {
		return bind
	}
	return net.JoinHostPort(bind, "0")
}

// Events delivers coordinator orders: resume, op, abort, stop. The channel
// is closed when the control connection dies, which a rank process treats
// as an order to exit (an orphaned rank must not outlive its supervisor).
func (cl *Client) Events() <-chan CtlMsg { return cl.events }

func (cl *Client) resolve(peer int) (string, bool) {
	addrs := cl.port.Load()
	if addrs == nil || peer < 0 || peer >= len(*addrs) {
		return "", false
	}
	a := (*addrs)[peer]
	return a, a != ""
}

// Adopt installs a portmap (normally done automatically when a resume
// arrives). Peers whose address changed are redialed lazily on next send.
func (cl *Client) Adopt(addrs []string) {
	own := append([]string(nil), addrs...)
	cl.port.Store(&own)
}

// Report sends one rank → coordinator message (ready, done, quiesced),
// stamped with this client's rank.
func (cl *Client) Report(m CtlMsg) error {
	m.Rank = cl.rank
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	return cl.enc.Encode(m)
}

// readLoop feeds the coordinator's orders to the events channel, adopting
// the portmap a resume carries before the rank runtime sees it.
func (cl *Client) readLoop() {
	defer cl.wg.Done()
	defer close(cl.events)
	dec := json.NewDecoder(cl.ctl)
	for {
		var m CtlMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		if m.Type == "resume" {
			cl.Adopt(m.Addrs)
		}
		cl.deliver(m)
	}
}

func (cl *Client) deliver(ev CtlMsg) {
	select {
	case cl.events <- ev:
	case <-cl.done:
	}
}

// NewWire returns this rank's endpoint (machine.Backend). The same wire
// is valid across machine incarnations. Nothing is drained here: a peer
// whose machine starts first may already have delivered current-epoch
// packets, and the epoch fence above drops stale ones lazily on Pull.
func (cl *Client) NewWire(rank, size int) (machine.BackendWire, error) {
	if rank != cl.rank {
		return nil, fmt.Errorf("netwire: client hosts rank %d, wire requested for %d", cl.rank, rank)
	}
	if size != cl.size {
		return nil, fmt.Errorf("netwire: client sized for %d ranks, wire requested for machine of %d", cl.size, size)
	}
	return cl.wire, nil
}

// Close shuts the data node, the control connection, and the unix socket
// directory. Safe to call more than once.
func (cl *Client) Close() error {
	cl.once.Do(func() {
		close(cl.done)
		cl.ctl.Close()
		cl.nd.close()
		if cl.dir != "" {
			os.RemoveAll(cl.dir)
		}
		cl.wg.Wait()
	})
	return nil
}
