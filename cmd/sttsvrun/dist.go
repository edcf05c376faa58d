// Distributed modes of sttsvrun: with -backend=tcp|unix the power method
// can run as P real OS processes instead of P goroutines.
//
//	sttsvrun -q 2 -n 30 -backend=tcp -dist        # coordinator: forks one
//	                                              # process per rank, supervises
//	sttsvrun -q 2 -n 30 -backend=tcp -rank=3 \    # one rank process (forked by
//	         -addr=127.0.0.1:41234                # the coordinator; rarely by hand)
//
// The coordinator re-execs its own binary with -rank=K and the identical
// problem flags, so every process derives the same tensor, partition and
// start vector from the scalars alone. A rank process killed mid-run
// (kill -9) is respawned and the interrupted iteration replays from the
// last committed checkpoint in a new wire epoch; the committed result is
// bit-identical to the in-process simulator, which the coordinator
// verifies by default after the distributed run.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// runRankMode hosts one machine rank: the whole process life is
// cluster.RunRank's resume/ready/op/done loop against the coordinator at
// -addr.
func runRankMode(bf *backendflag.Options, cfg cluster.Config) int {
	err := cluster.RunRank(cluster.RankOptions{
		Config:  cfg,
		CtlAddr: bf.Addr,
		Rank:    bf.Rank,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sttsvrun: rank %d: %v\n", bf.Rank, err)
		return 1
	}
	return 0
}

// rankProc adapts an exec'd rank process to cluster.Proc.
type rankProc struct{ cmd *exec.Cmd }

func (p rankProc) Kill() error { return p.cmd.Process.Kill() }
func (p rankProc) Wait() error { return p.cmd.Wait() }

// runDistMode is the coordinator: it forks one -rank=K re-exec of this
// binary per rank, supervises the distributed power method, and checks
// the committed outcome bit for bit against the in-process simulator.
func runDistMode(bf *backendflag.Options, cfg cluster.Config) int {
	if cfg.CkptDir == "" {
		dir, err := os.MkdirTemp("", "sttsv-ckpt")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttsvrun:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.CkptDir = dir
	}
	ctlAddr := bf.Addr
	if ctlAddr == "" && cfg.Network == "unix" {
		dir, err := os.MkdirTemp("", "sttsv-ctl")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sttsvrun:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		ctlAddr = filepath.Join(dir, "ctl.sock")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun:", err)
		return 1
	}

	var resolved string // control address the forked ranks dial
	out, err := cluster.Supervise(cluster.SuperviseOptions{
		Config:   cfg,
		CtlAddr:  ctlAddr,
		OnListen: func(addr string) { resolved = addr },
		Spawn: func(rank int) (cluster.Proc, error) {
			args := []string{
				"-backend=" + cfg.Network,
				"-addr=" + resolved,
				"-rank=" + strconv.Itoa(rank),
				"-q=" + strconv.Itoa(cfg.Q),
				"-n=" + strconv.Itoa(cfg.N),
				"-seed=" + strconv.FormatInt(cfg.Seed, 10),
				"-maxiter=" + strconv.Itoa(cfg.MaxIter),
				"-tol=" + strconv.FormatFloat(cfg.Tol, 'g', -1, 64),
				"-ckptdir=" + cfg.CkptDir,
			}
			if cfg.Faults != "" {
				args = append(args, "-faults="+cfg.Faults)
			}
			if bf.Hosts != "" {
				args = append(args, "-hosts="+bf.Hosts)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return rankProc{cmd}, nil
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: dist:", err)
		return 1
	}
	part, err := partition.NewSpherical(cfg.Q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun:", err)
		return 1
	}
	fmt.Printf("distributed power method (%s, %d processes): lambda=%.8g iterations=%d converged=%v respawns=%d epoch=%d\n",
		cfg.Network, part.P, out.Lambda, out.Iterations, out.Converged, out.Respawns, out.FinalEpoch)

	ref, err := simPowerReference(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttsvrun: sim reference:", err)
		return 1
	}
	exact := math.Float64bits(out.Lambda) == math.Float64bits(ref.Lambda) &&
		out.Iterations == ref.Iterations && out.Converged == ref.Converged &&
		len(out.X) == len(ref.X)
	if exact {
		for i := range out.X {
			if out.X[i] != ref.X[i] {
				exact = false
				break
			}
		}
	}
	fmt.Printf("  distributed lambda=%v  sim lambda=%v  bit-identical=%v\n", out.Lambda, ref.Lambda, exact)
	if !exact {
		fmt.Fprintln(os.Stderr, "sttsvrun: distributed outcome diverges from the in-process simulator")
		return 1
	}
	return 0
}

// simPowerReference runs the identical problem on the in-process
// simulated machine, the baseline the distributed run must match bit for
// bit.
func simPowerReference(cfg cluster.Config) (*parallel.EigenResult, error) {
	part, err := partition.NewSpherical(cfg.Q)
	if err != nil {
		return nil, err
	}
	b := (cfg.N + part.M - 1) / part.M
	a := tensor.Random(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	return parallel.RunPowerMethod(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
	}, parallel.PowerOptions{MaxIter: cfg.MaxIter, Tol: cfg.Tol, Seed: cfg.Seed})
}
