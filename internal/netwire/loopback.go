package netwire

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
	"repro/internal/machine"
)

// Loopback is a machine.Backend that runs all P ranks of one process over
// real sockets — TCP on 127.0.0.1 or unix-domain sockets in a temporary
// directory. Every packet is framed, written to the kernel, read back and
// decoded, so the codec, connection management and framed wire metering
// are exercised exactly as in a distributed run, while the machine itself
// (and everything above it: transports, sessions, recovery) runs
// unchanged. This is the conformance configuration: logical meters and
// results must match the SimBackend bit for bit. The in-process crash
// recovery suite runs over it too: a recovering session relaunches its
// machine one epoch later over the same wires, and the epoch fence drops
// whatever the retired incarnation left in flight.
type Loopback struct {
	network string
	plan    fault.Plan
	mu      sync.Mutex
	size    int
	dir     string
	nodes   []*node
	wires   []*Wire
	addrs   []string
	closed  bool
}

// NewLoopback returns a single-process socket backend; network is "tcp"
// or "unix". Listeners are created lazily at the first NewWire, when the
// machine size is known.
func NewLoopback(network string) (*Loopback, error) {
	switch network {
	case "tcp", "unix":
	default:
		return nil, fmt.Errorf("netwire: loopback network %q (want tcp or unix)", network)
	}
	return &Loopback{network: network}, nil
}

// NewChaosLoopback is NewLoopback with a seeded fault plan applied to
// every rank's outbound frames at the socket level (see fault.Plan and
// chaosSend's mapping of fault classes onto framed bytes). A rank's faults
// are decided by a fault.Decider, as in the simulated injector, so the
// same plan perturbs sim and socket runs comparably.
func NewChaosLoopback(network string, plan fault.Plan) (*Loopback, error) {
	b, err := NewLoopback(network)
	if err != nil {
		return nil, err
	}
	b.plan = plan
	return b, nil
}

// NewWire returns rank's socket endpoint, setting up all P listeners on
// first use.
func (b *Loopback) NewWire(rank, size int) (machine.BackendWire, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errNodeClosed
	}
	if b.nodes == nil {
		if err := b.setupLocked(size); err != nil {
			return nil, err
		}
	}
	if size != b.size {
		return nil, fmt.Errorf("netwire: loopback sized for %d ranks, wire requested for machine of %d", b.size, size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("netwire: loopback wire for rank %d of %d", rank, size)
	}
	return b.wires[rank], nil
}

func (b *Loopback) setupLocked(size int) error {
	if size < 1 {
		return fmt.Errorf("netwire: loopback for %d ranks", size)
	}
	addrs := make([]string, size)
	resolve := func(peer int) (string, bool) {
		if peer < 0 || peer >= len(addrs) {
			return "", false
		}
		return addrs[peer], true
	}
	var dir string
	if b.network == "unix" {
		d, err := os.MkdirTemp("", "netwire")
		if err != nil {
			return err
		}
		dir = d
	}
	nodes := make([]*node, size)
	wires := make([]*Wire, size)
	for r := 0; r < size; r++ {
		listen := "127.0.0.1:0"
		if b.network == "unix" {
			listen = filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
		}
		nd, err := newNode(b.network, listen, r, size, resolve)
		if err != nil {
			for _, p := range nodes[:r] {
				p.close()
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
			return err
		}
		nd.chaos = fault.NewDecider(b.plan, r)
		nodes[r] = nd
		wires[r] = &Wire{nd: nd}
		addrs[r] = nd.addr()
	}
	b.size = size
	b.dir = dir
	b.nodes = nodes
	b.wires = wires
	b.addrs = addrs
	return nil
}

// Close shuts every listener and connection and removes unix socket
// files. Safe to call more than once.
func (b *Loopback) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	nodes := b.nodes
	dir := b.dir
	b.mu.Unlock()
	for _, nd := range nodes {
		nd.close()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	return nil
}
