package cluster

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/partition"
)

// goProc satisfies Proc for a rank running as a goroutine. Kill cannot
// stop the goroutine, which is fine for the clean-run conformance path
// (the kill-9 suite uses real processes), so Wait blocks until Kill, as a
// process's Wait blocks until it exits.
type goProc struct {
	once   sync.Once
	killed chan struct{}
}

func (p *goProc) Kill() error {
	p.once.Do(func() { close(p.killed) })
	return nil
}

func (p *goProc) Wait() error {
	<-p.killed
	return nil
}

// superviseInProcess runs Supervise with every rank process as a
// goroutine; onCheckpoint may be nil.
func superviseInProcess(t *testing.T, cfg Config, onCheckpoint func(rank, iter int)) *Outcome {
	t.Helper()
	var addr string
	addrCh := make(chan string, 1)
	out, err := Supervise(SuperviseOptions{
		Config:   cfg,
		OnListen: func(a string) { addr = a; close(addrCh) },
		Spawn: func(rank int) (Proc, error) {
			<-addrCh
			go func() {
				if err := RunRank(RankOptions{Config: cfg, CtlAddr: addr, Rank: rank}); err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
			}()
			return &goProc{killed: make(chan struct{})}, nil
		},
		OnCheckpoint: onCheckpoint,
		Timeout:      60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSuperviseInProcess runs the full coordinator/rank protocol with the
// rank processes as goroutines: the whole distributed lifecycle (resume,
// restore, ready, ops, checkpoints, result shipping, assembly) without
// exec. Failures here come with this process's stack dump.
func TestSuperviseInProcess(t *testing.T) {
	cfg := testConfig(t)
	out := superviseInProcess(t, cfg, nil)
	assertMatchesSim(t, out, simReference(t, cfg))
}

// TestSuperviseCommitsAtDispatchBoundary pins the commit point: the
// coordinator dispatches op k+1 only after all P done for op k. While it
// sits on the first acknowledgement of boundary 1, no rank may write the
// checkpoint of boundary 2 (free-running ranks would), and over the run
// every rank acknowledges boundary k+1 before any rank acknowledges k+2.
func TestSuperviseCommitsAtDispatchBoundary(t *testing.T) {
	cfg := testConfig(t)
	part, err := partition.NewSpherical(cfg.Q)
	if err != nil {
		t.Fatal(err)
	}
	var acks [][2]int
	out := superviseInProcess(t, cfg, func(rank, iter int) {
		if len(acks) == 0 {
			for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
				if ahead, _ := filepath.Glob(filepath.Join(cfg.CkptDir, "ckpt-r*-i000002.bin")); len(ahead) > 0 {
					t.Errorf("boundary 2 written before op 1 was dispatched: %v", ahead)
					break
				}
			}
		}
		acks = append(acks, [2]int{rank, iter})
	})
	if len(acks) != part.P*out.Iterations {
		t.Fatalf("%d acknowledgements for %d iterations of %d ranks", len(acks), out.Iterations, part.P)
	}
	for i, a := range acks {
		if want := i/part.P + 1; a[1] != want {
			t.Fatalf("acknowledgement %d is rank %d at boundary %d, want boundary %d", i, a[0], a[1], want)
		}
	}
}

// TestSuperviseInProcessMultiHost is the multi-host-shaped cluster run:
// every rank binds a distinct loopback address from a hosts list, so
// nothing in the portmap path may assume a shared 127.0.0.1 — and the
// committed outcome still matches the simulator bit for bit.
func TestSuperviseInProcessMultiHost(t *testing.T) {
	cfg := testConfig(t)
	part, err := partition.NewSpherical(cfg.Q)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hosts = make([]string, part.P)
	for r := range cfg.Hosts {
		// 127.0.0.2, 127.0.0.3, ... — one address per rank.
		cfg.Hosts[r] = net.IPv4(127, 0, 0, byte(2+r)).String()
	}
	for _, h := range cfg.Hosts {
		ln, err := net.Listen("tcp", net.JoinHostPort(h, "0"))
		if err != nil {
			t.Skipf("cannot bind %s: %v (single-address loopback)", h, err)
		}
		ln.Close()
	}
	out := superviseInProcess(t, cfg, nil)
	assertMatchesSim(t, out, simReference(t, cfg))
}
