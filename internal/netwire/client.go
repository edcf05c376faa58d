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
// machine.Backend for a machine whose LocalRanks is exactly this rank;
// the wire it hands out adds the control-plane Barrier the distributed
// machine requires (see machine.StartWith), realized as a barrier/release
// round-trip on the control plane.
type Client struct {
	network string
	rank    int
	size    int
	dir     string // unix socket directory, "" for tcp

	nd   *node
	wire *clientWire

	ctl  net.Conn
	wmu  sync.Mutex // serializes control-plane writes
	enc  *json.Encoder
	port atomic.Pointer[[]string] // adopted portmap

	rel    chan ctlMsg   // barrier releases, consumed by Barrier
	events chan CtlEvent // resume / go / abort / stop, for the rank runtime
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
		network: network,
		rank:    rank,
		size:    size,
		rel:     make(chan ctlMsg, 64),
		events:  make(chan CtlEvent, 64),
		done:    make(chan struct{}),
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
	nd, err := newNode(network, listen, rank, cl.resolve)
	if err != nil {
		if cl.dir != "" {
			os.RemoveAll(cl.dir)
		}
		return nil, err
	}
	nd.chaos = fault.NewDecider(opt.FaultPlan, rank)
	cl.nd = nd
	cl.wire = &clientWire{Wire: &Wire{nd: nd}, cl: cl}

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
	if err := cl.sendCtl(ctlMsg{Type: "hello", Rank: rank, Addr: nd.addr()}); err != nil {
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

// Rank returns the rank this client hosts.
func (cl *Client) Rank() int { return cl.rank }

// Events delivers coordinator orders: resume, go, abort, stop. The channel
// is closed when the control connection dies, which a rank process treats
// as an order to exit (an orphaned rank must not outlive its supervisor).
func (cl *Client) Events() <-chan CtlEvent { return cl.events }

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

func (cl *Client) sendCtl(m ctlMsg) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	return cl.enc.Encode(m)
}

// Ready reports restored state for the epoch (reply to resume).
func (cl *Client) Ready(epoch int64) error {
	return cl.sendCtl(ctlMsg{Type: "ready", Rank: cl.rank, Epoch: epoch})
}

// Quiesced reports the rank parked after an epoch abort.
func (cl *Client) Quiesced(epoch int64) error {
	return cl.sendCtl(ctlMsg{Type: "quiesced", Rank: cl.rank, Epoch: epoch})
}

// Ckpt reports a durably committed checkpoint at iter.
func (cl *Client) Ckpt(iter int) error {
	return cl.sendCtl(ctlMsg{Type: "ckpt", Rank: cl.rank, Iter: iter})
}

// Result ships the rank's final outcome and owned iterate words.
func (cl *Client) Result(lambdaBits uint64, iterations int, converged, singular bool, chunkBits []uint64) error {
	return cl.sendCtl(ctlMsg{
		Type: "result", Rank: cl.rank,
		LambdaBits: lambdaBits, Iterations: iterations,
		Converged: converged, Singular: singular, ChunkBits: chunkBits,
	})
}

// readLoop demultiplexes the control stream: releases feed the barrier,
// everything else feeds the events channel.
func (cl *Client) readLoop() {
	defer cl.wg.Done()
	defer close(cl.events)
	dec := json.NewDecoder(cl.ctl)
	for {
		var m ctlMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		switch m.Type {
		case "release":
			// The buffer can fill with stale releases from epochs aborted
			// after this rank arrived at their barriers. Evict the OLDEST
			// entry when full — never the incoming message — so the release
			// for the current epoch is the one guaranteed to survive;
			// Barrier itself skips entries of non-matching epochs. The loop
			// terminates because readLoop is the only producer.
			for {
				select {
				case cl.rel <- m:
				default:
					select {
					case <-cl.rel:
					default:
					}
					continue
				}
				break
			}
		case "resume":
			cl.Adopt(m.Addrs)
			cl.deliver(eventOf(m))
		case "go", "abort", "stop":
			cl.deliver(eventOf(m))
		}
	}
}

func (cl *Client) deliver(ev CtlEvent) {
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

// clientWire is the rank's BackendWire plus the control-plane barrier the
// distributed machine requires.
type clientWire struct {
	*Wire
	cl *Client
}

// Barrier arrives at the coordinator and blocks for the matching release.
// A close of the abort channel, a dead control connection, or a client
// close wakes it with ok == false; releases of other (aborted) epochs are
// skipped.
func (w *clientWire) Barrier(epoch int64, abort <-chan struct{}) (int, bool) {
	if err := w.cl.sendCtl(ctlMsg{Type: "barrier", Rank: w.cl.rank, Epoch: epoch}); err != nil {
		return 0, false
	}
	for {
		select {
		case m := <-w.cl.rel:
			if m.Epoch == epoch {
				return m.Gen, true
			}
		case <-abort:
			return 0, false
		case <-w.cl.done:
			return 0, false
		}
	}
}
