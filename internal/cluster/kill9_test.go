package cluster

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netwire"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// The distributed suite re-execs this test binary as the rank processes:
// TestHelperRankProcess is inert in a normal run and becomes a rank
// process's main when the environment selects it.
func TestHelperRankProcess(t *testing.T) {
	rankEnv := os.Getenv("STTSV_CLUSTER_RANK")
	if rankEnv == "" {
		t.Skip("not a rank process")
	}
	rank, err := strconv.Atoi(rankEnv)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	atoi := func(key string) int {
		v, err := strconv.Atoi(os.Getenv(key))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad %s: %v\n", key, err)
			os.Exit(2)
		}
		return v
	}
	if os.Getenv("STTSV_CLUSTER_START_EXIT") != "" {
		// A respawn that fails at start-up, before it says hello.
		os.Exit(1)
	}
	if os.Getenv("STTSV_CLUSTER_HELLO_EXIT") != "" {
		// A respawn that registers and dies before it is ready.
		part, err := partition.NewSpherical(atoi("STTSV_CLUSTER_Q"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cl, err := netwire.NewClient(os.Getenv("STTSV_CLUSTER_NET"), os.Getenv("STTSV_CLUSTER_CTL"), rank, part.P, netwire.ClientOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cl.Close()
		os.Exit(0)
	}
	opt := RankOptions{
		Config: Config{
			Network: os.Getenv("STTSV_CLUSTER_NET"),
			Q:       atoi("STTSV_CLUSTER_Q"),
			N:       atoi("STTSV_CLUSTER_N"),
			Seed:    int64(atoi("STTSV_CLUSTER_SEED")),
			MaxIter: atoi("STTSV_CLUSTER_MAXITER"),
			Tol:     1e-10,
			CkptDir: os.Getenv("STTSV_CLUSTER_CKPT"),
			Faults:  os.Getenv("STTSV_CLUSTER_FAULTS"),
		},
		CtlAddr: os.Getenv("STTSV_CLUSTER_CTL"),
		Rank:    rank,
	}
	if err := RunRank(opt); err != nil {
		fmt.Fprintf(os.Stderr, "rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testSpawner re-execs the test binary as rank processes and remembers
// the live process of each rank so the suite can kill one, and every
// command it started so the suite can check that each was reaped.
type testSpawner struct {
	t       *testing.T
	cfg     Config
	flaky   int    // rank whose respawns exit at once; -1 for none
	exitEnv string // how they exit: the TestHelperRankProcess mode to set
	timeout time.Duration

	mu     sync.Mutex
	addr   string
	procs  map[int]*os.Process
	spawns map[int]int
	cmds   []*exec.Cmd
}

func newTestSpawner(t *testing.T, cfg Config) *testSpawner {
	return &testSpawner{t: t, cfg: cfg, flaky: -1, timeout: 90 * time.Second,
		procs: map[int]*os.Process{}, spawns: map[int]int{}}
}

func (s *testSpawner) spawn(rank int) (Proc, error) {
	s.mu.Lock()
	respawn := s.spawns[rank] > 0
	s.spawns[rank]++
	ctlAddr := s.addr
	s.mu.Unlock()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperRankProcess$")
	cmd.Env = append(os.Environ(),
		"STTSV_CLUSTER_RANK="+strconv.Itoa(rank),
		"STTSV_CLUSTER_NET="+s.cfg.Network,
		"STTSV_CLUSTER_Q="+strconv.Itoa(s.cfg.Q),
		"STTSV_CLUSTER_N="+strconv.Itoa(s.cfg.N),
		"STTSV_CLUSTER_SEED="+strconv.FormatInt(s.cfg.Seed, 10),
		"STTSV_CLUSTER_MAXITER="+strconv.Itoa(s.cfg.MaxIter),
		"STTSV_CLUSTER_CKPT="+s.cfg.CkptDir,
		"STTSV_CLUSTER_CTL="+ctlAddr,
		"STTSV_CLUSTER_FAULTS="+s.cfg.Faults,
	)
	if respawn && rank == s.flaky {
		cmd.Env = append(cmd.Env, s.exitEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.procs[rank] = cmd.Process
	s.cmds = append(s.cmds, cmd)
	s.mu.Unlock()
	return cmdProc{cmd}, nil
}

// supervise runs Supervise over re-exec'd rank processes; hook observes
// every durable acknowledgement.
func (s *testSpawner) supervise(hook func(s *testSpawner, rank, iter int)) (*Outcome, error) {
	return Supervise(SuperviseOptions{
		Config: s.cfg,
		Spawn:  s.spawn,
		OnListen: func(a string) {
			s.mu.Lock()
			s.addr = a
			s.mu.Unlock()
		},
		OnCheckpoint: func(rank, iter int) {
			if hook != nil {
				hook(s, rank, iter)
			}
		},
		Timeout: s.timeout,
	})
}

func (s *testSpawner) kill(rank int) {
	s.mu.Lock()
	proc := s.procs[rank]
	s.mu.Unlock()
	if proc != nil {
		proc.Kill() // SIGKILL: the process gets no chance to clean up
	}
}

type cmdProc struct{ cmd *exec.Cmd }

func (p cmdProc) Kill() error { return p.cmd.Process.Kill() }
func (p cmdProc) Wait() error { return p.cmd.Wait() }

// simReference runs the identical problem on the in-process simulator.
func simReference(t *testing.T, cfg Config) *parallel.EigenResult {
	t.Helper()
	part, a, b, err := cfg.problem()
	if err != nil {
		t.Fatal(err)
	}
	_ = part
	s, err := parallel.OpenSession(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := s.PowerMethod(parallel.PowerOptions{MaxIter: cfg.MaxIter, Tol: cfg.Tol, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func testConfig(t *testing.T) Config {
	part, err := partition.NewSpherical(2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Network: "tcp",
		Q:       2,
		N:       part.M * 6,
		Seed:    7,
		MaxIter: 12,
		Tol:     1e-10,
		CkptDir: t.TempDir(),
	}
}

func superviseWith(t *testing.T, cfg Config, hook func(s *testSpawner, rank, iter int)) *Outcome {
	t.Helper()
	out, err := newTestSpawner(t, cfg).supervise(hook)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertMatchesSim(t *testing.T, out *Outcome, ref *parallel.EigenResult) {
	t.Helper()
	if math.Float64bits(out.Lambda) != math.Float64bits(ref.Lambda) {
		t.Errorf("λ = %v (bits %x), sim %v (bits %x)",
			out.Lambda, math.Float64bits(out.Lambda), ref.Lambda, math.Float64bits(ref.Lambda))
	}
	if out.Iterations != ref.Iterations || out.Converged != ref.Converged || out.Singular != ref.Singular {
		t.Errorf("iters/conv/sing = %d/%v/%v, sim %d/%v/%v",
			out.Iterations, out.Converged, out.Singular, ref.Iterations, ref.Converged, ref.Singular)
	}
	if len(out.X) != len(ref.X) {
		t.Fatalf("X has %d entries, sim %d", len(out.X), len(ref.X))
	}
	for i := range out.X {
		if math.Float64bits(out.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("X[%d] = %v differs from sim %v", i, out.X[i], ref.X[i])
		}
	}
}

// TestClusterConformance: P separate OS processes over real TCP produce a
// bit-identical power method to the in-process simulator.
func TestClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	cfg := testConfig(t)
	out := superviseWith(t, cfg, nil)
	assertMatchesSim(t, out, simReference(t, cfg))
	if out.Respawns != 0 || out.FinalEpoch != 0 {
		t.Errorf("clean run reported %d respawns, final epoch %d", out.Respawns, out.FinalEpoch)
	}
}

// TestClusterKill9Recovery is the acceptance gate for the recovery arc: a
// rank process is killed with SIGKILL mid-run; the supervisor fences the
// epoch, respawns it, rolls everyone back to the committed checkpoint,
// and the committed results are still bit-identical to the simulator.
func TestClusterKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	cfg := testConfig(t)
	var once sync.Once
	out := superviseWith(t, cfg, func(sp *testSpawner, rank, iter int) {
		// The third committed iteration of rank 1 is strictly mid-method
		// (the q=2 reference runs all 12); take rank 2 down hard.
		if rank == 1 && iter == 3 {
			once.Do(func() { sp.kill(2) })
		}
	})
	if out.Respawns < 1 {
		t.Fatalf("no respawn recorded — the kill never landed")
	}
	if out.FinalEpoch < 1 {
		t.Errorf("final epoch %d after a kill; want ≥ 1", out.FinalEpoch)
	}
	assertMatchesSim(t, out, simReference(t, cfg))
}

// TestClusterChaosKill9Recovery composes the socket fault layer with hard
// process death: every rank's data frames cross a chaos-perturbed TCP
// wire (drops, duplicates, reorders — no deterministic crash; cluster
// runs forbid those, since a respawn would replay straight into the same
// crash), and mid-run one rank process is SIGKILLed on top. The reliable
// transport absorbs the frame damage, the supervisor absorbs the kill,
// and the committed outcome still matches the simulator bit for bit.
func TestClusterChaosKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	cfg := testConfig(t)
	cfg.Faults = "seed=909,drop=0.08,dup=0.08,reorder=0.1"
	var once sync.Once
	out := superviseWith(t, cfg, func(sp *testSpawner, rank, iter int) {
		if rank == 1 && iter == 3 {
			once.Do(func() { sp.kill(2) })
		}
	})
	if out.Respawns < 1 {
		t.Fatalf("no respawn recorded — the kill never landed")
	}
	assertMatchesSim(t, out, simReference(t, cfg))
}

// TestClusterRejectsCrashPlans: a fault plan with a deterministic crash is
// refused up front — a respawned rank process would re-derive the same
// plan and re-crash at the same operation forever.
func TestClusterRejectsCrashPlans(t *testing.T) {
	cfg := testConfig(t)
	cfg.Faults = "drop=0.1,crash=1@5"
	if _, err := Supervise(SuperviseOptions{Config: cfg, Spawn: func(int) (Proc, error) { return nil, nil }}); err == nil {
		t.Fatal("Supervise accepted a crash-scheduling fault plan")
	}
	if err := RunRank(RankOptions{Config: cfg, Rank: 0}); err == nil {
		t.Fatal("RunRank accepted a crash-scheduling fault plan")
	}
}

// TestClusterBudgetExhausted: a rank that dies on every relaunch spends
// the per-op recovery budget, and Supervise reports the exhausted budget
// instead of waiting out its timeout. Rank 2 is killed mid-run as in
// TestClusterKill9Recovery, and every respawn of it exits at once, so each
// relaunch fails before ready: the kill and MaxRetries+1 failed replays
// (the count a Session dispatch allows) end the run, each death counted
// once. A respawn that registers first is reported by its down event; one
// that exits before its hello has never registered, so only its exit
// tells. No rank process outlives Supervise.
func TestClusterBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	for _, mode := range []struct{ name, env string }{
		{"exit-after-hello", "STTSV_CLUSTER_HELLO_EXIT"},
		{"exit-before-hello", "STTSV_CLUSTER_START_EXIT"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig(t)
			sp := newTestSpawner(t, cfg)
			sp.flaky, sp.exitEnv = 2, mode.env
			sp.timeout = 8 * time.Second
			var once sync.Once
			start := time.Now()
			_, err := sp.supervise(func(sp *testSpawner, rank, iter int) {
				if rank == 1 && iter == 3 {
					once.Do(func() { sp.kill(2) })
				}
			})
			t.Logf("Supervise after %v: %v", time.Since(start).Round(time.Millisecond), err)
			if err == nil || !strings.Contains(err.Error(), "recovery budget") {
				t.Fatalf("Supervise = %v, want an exhausted recovery budget", err)
			}
			maxRetries := 3 // parallel.RecoveryOptions' default
			if got, want := sp.spawns[2], 1+maxRetries+1; got != want {
				t.Errorf("rank 2 spawned %d times, want %d (first launch + MaxRetries+1 replays)", got, want)
			}
			for _, cmd := range sp.cmds {
				if cmd.ProcessState == nil {
					t.Errorf("rank process %d outlived Supervise", cmd.Process.Pid)
				}
			}
		})
	}
}
