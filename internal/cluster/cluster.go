// Package cluster turns the distributed pieces — the netwire control and
// data planes, the per-rank power-method engine, durable checkpoints —
// into a multi-process runtime: one coordinator process supervising P
// rank processes over TCP or unix-domain sockets, with the Session's
// recovery protocol. Each power iteration is one op the coordinator
// dispatches; it commits once every rank has acknowledged it with a
// durable checkpoint. A rank killed with SIGKILL mid-run is respawned,
// every survivor rolls back to the committed boundary, and the op replays
// in a new wire epoch; the committed results are bit-identical to the
// single-process simulated run.
package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// Config describes one distributed power-method problem. Every process —
// coordinator and ranks — derives the identical tensor, partition and
// start vector from it, so only these few scalars ever cross a process
// boundary at launch.
type Config struct {
	// Network is "tcp" or "unix".
	Network string
	// Q selects the spherical partition (P = q(q²+1) ranks: 10 at q = 2).
	Q int
	// N is the problem dimension; the block edge is ceil(N/M).
	N int
	// Seed determines the random tensor and the power-method start vector.
	Seed int64
	// MaxIter and Tol are the power-method controls (defaults 200, 1e-12).
	MaxIter int
	// Tol is the eigenvalue convergence tolerance.
	Tol float64
	// CkptDir is the shared directory for per-rank checkpoint files.
	CkptDir string
	// Faults is an optional socket-level fault plan in fault.ParsePlan
	// syntax (drop/dup/reorder/corrupt/stall/reset). An active plan
	// perturbs every rank's outbound data frames and runs a reliable
	// transport above the wire, so committed results stay bit-identical.
	Faults string
	// Hosts optionally lists one bind address per rank ("host" or
	// "host:port", rank order — the netwire hosts-file format). Empty
	// means every rank binds loopback with an ephemeral port. tcp only.
	Hosts []string
}

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if out.Network == "" {
		out.Network = "tcp"
	}
	if out.MaxIter <= 0 {
		out.MaxIter = 200
	}
	if out.Tol <= 0 {
		out.Tol = 1e-12
	}
	return out
}

// faultPlan parses and validates the socket fault schedule. Deterministic
// crash faults are rejected: a respawned rank replays the same operation
// sequence and would re-crash at the same point forever. Process death in
// a cluster run is exercised by killing the rank process instead.
func (cfg *Config) faultPlan() (fault.Plan, error) {
	plan, err := fault.ParsePlan(cfg.Faults)
	if err != nil {
		return fault.Plan{}, err
	}
	if len(plan.Crash) > 0 {
		return fault.Plan{}, fmt.Errorf("cluster: fault plan %q schedules a deterministic crash; kill the rank process instead", cfg.Faults)
	}
	return plan, nil
}

// layout resolves the partition and block edge (no tensor entries).
func (cfg *Config) layout() (*partition.Tetrahedral, int, error) {
	part, err := partition.NewSpherical(cfg.Q)
	if err != nil {
		return nil, 0, err
	}
	if cfg.N < 1 {
		return nil, 0, fmt.Errorf("cluster: dimension %d", cfg.N)
	}
	b := (cfg.N + part.M - 1) / part.M
	return part, b, nil
}

// problem materializes the deterministic shared tensor. Every process
// calls this with the same config and obtains bit-identical entries.
func (cfg *Config) problem() (*partition.Tetrahedral, *tensor.Symmetric, int, error) {
	part, b, err := cfg.layout()
	if err != nil {
		return nil, nil, 0, err
	}
	a := tensor.Random(cfg.N, rand.New(rand.NewSource(cfg.Seed)))
	return part, a, b, nil
}
