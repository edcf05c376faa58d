package cluster

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/parallel"
)

// RankOptions configures one rank process.
type RankOptions struct {
	Config
	// CtlAddr is the coordinator's control endpoint.
	CtlAddr string
	// Rank is the machine rank this process hosts.
	Rank int
}

// rankProc is one rank process's state across epochs.
type rankProc struct {
	cfg       Config
	p, rank   int
	eng       *parallel.RankEngine
	cl        *netwire.Client
	transport machine.TransportFactory
}

// RunRank is a rank process's entire life: register with the coordinator,
// then serve one epoch per resume until told to stop. Loss of the control
// connection terminates the process — an orphaned rank must not outlive
// its supervisor.
func RunRank(opt RankOptions) error {
	cfg := opt.Config.withDefaults()
	part, a, b, err := cfg.problem()
	if err != nil {
		return err
	}
	if opt.Rank < 0 || opt.Rank >= part.P {
		return fmt.Errorf("cluster: rank %d of %d", opt.Rank, part.P)
	}
	eng, err := parallel.NewRankEngine(a, parallel.Options{
		Part: part, B: b, Wiring: parallel.WiringP2P,
	}, opt.Rank)
	if err != nil {
		return err
	}
	plan, err := cfg.faultPlan()
	if err != nil {
		return err
	}
	copt := netwire.ClientOptions{FaultPlan: plan}
	if len(cfg.Hosts) > 0 {
		if len(cfg.Hosts) != part.P {
			return fmt.Errorf("cluster: hosts file lists %d hosts for %d ranks", len(cfg.Hosts), part.P)
		}
		copt.Bind = cfg.Hosts[opt.Rank]
	}
	cl, err := netwire.NewClient(cfg.Network, opt.CtlAddr, opt.Rank, part.P, copt)
	if err != nil {
		return err
	}
	defer cl.Close()
	rp := &rankProc{cfg: cfg, p: part.P, rank: opt.Rank, eng: eng, cl: cl}
	if plan.Active() {
		// Chaos-perturbed frames need the reliable transport above the
		// wire. The retry budget is effectively unbounded — the
		// coordinator's abort, not the transport, decides when a silent
		// peer means a dead rank.
		rp.transport = fault.Transport(fault.Plan{}, fault.ReliableOptions{MaxAttempts: 1 << 20})
	}

	for {
		ev, ok := <-cl.Events()
		if !ok {
			return rp.lost()
		}
		switch ev.Type {
		case "stop":
			return nil
		case "abort":
			// Parked between epochs: nothing to unwind.
			if err := cl.Report(netwire.CtlMsg{Type: "quiesced", Epoch: ev.Epoch}); err != nil {
				return err
			}
		case "resume":
			if stop, err := rp.serve(ev.Epoch, ev.Iter); err != nil || stop {
				return err
			}
		}
	}
}

func (rp *rankProc) lost() error {
	return fmt.Errorf("cluster: rank %d lost the coordinator", rp.rank)
}

// serve runs one epoch: restore boundary k, launch the epoch's resident
// machine, report ready, then run every op the coordinator dispatches,
// acknowledging each once its checkpoint is durable. An abort retires the
// machine and reports quiesced (stop false); a stop retires it and ends
// the process (stop true).
func (rp *rankProc) serve(epoch int64, k int) (stop bool, err error) {
	if k == 0 {
		rp.eng.SeedPower(rp.cfg.Seed)
	} else {
		rec, err := os.ReadFile(ckptPath(rp.cfg.CkptDir, rp.rank, k))
		if err != nil {
			return false, err
		}
		if err := rp.eng.Resume(k, rec); err != nil {
			return false, err
		}
	}

	// The Session's park-and-serve loop on a one-rank machine: park in
	// AwaitHost, which keeps the transport answering peers' retransmits,
	// run one op fed from the control plane, repeat. An abort unwinds the
	// op back to the park; closing ops releases the body.
	ops := make(chan int, 1)
	rounds := make(chan netwire.CtlMsg, 1)
	h, err := machine.StartWith(rp.p, machine.RunConfig{
		Backend:    rp.cl,
		LocalRanks: []int{rp.rank},
		StartEpoch: epoch,
		Transport:  rp.transport,
	}, func(c *machine.Comm) {
		for {
			var op int
			ok := false
			c.AwaitHost(func() { op, ok = <-ops })
			if !ok {
				return
			}
			if m, ok := rp.iterate(c, op); ok {
				rounds <- m
			}
		}
	})
	if err != nil {
		return false, err
	}
	exited := make(chan error, 1)
	go func() {
		_, err := h.Wait()
		exited <- err
	}()
	retire := func() {
		h.Abort()
		close(ops)
		<-exited
	}

	if err := rp.cl.Report(netwire.CtlMsg{Type: "ready", Epoch: epoch}); err != nil {
		retire()
		return false, err
	}
	for {
		select {
		case ev, ok := <-rp.cl.Events():
			if !ok {
				retire()
				return false, rp.lost()
			}
			switch ev.Type {
			case "op":
				if ev.Epoch == epoch {
					ops <- ev.Iter
				}
			case "abort":
				retire()
				return false, rp.cl.Report(netwire.CtlMsg{Type: "quiesced", Epoch: ev.Epoch})
			case "stop":
				retire()
				return true, nil
			}
		case m := <-rounds:
			if err := rp.commit(epoch, m); err != nil {
				retire()
				return false, err
			}
		case err := <-exited:
			return false, fmt.Errorf("cluster: rank %d machine of epoch %d exited: %v", rp.rank, epoch, err)
		}
	}
}

// iterate runs op k on the rank's machine and returns its done message's
// op index and flags; ok is false when an abort unwound it. Any other
// panic kills the rank.
func (rp *rankProc) iterate(c *machine.Comm, k int) (m netwire.CtlMsg, ok bool) {
	defer func() {
		if v := recover(); v != nil && !machine.IsAbort(v) {
			panic(v)
		}
	}()
	m.Iter = k
	m.Stop, m.Converged, m.Singular = rp.eng.Iterate(c, rp.cfg.Tol)
	return m, true
}

// commit makes boundary m.Iter+1 durable, then acknowledges op m.Iter.
// The run's last op also carries the owned chunks for assembly. The body
// is parked until the next op, so the engine's arena is this goroutine's
// to read.
func (rp *rankProc) commit(epoch int64, m netwire.CtlMsg) error {
	if err := writeCkpt(rp.cfg.CkptDir, rp.rank, m.Iter+1, rp.eng.Checkpoint(m.Iter+1)); err != nil {
		return err
	}
	m.Type, m.Epoch = "done", epoch
	m.LambdaBits = math.Float64bits(rp.eng.Lambda())
	if m.Stop || m.Iter+1 == rp.cfg.MaxIter {
		for _, v := range rp.eng.OwnedWords() {
			m.ChunkBits = append(m.ChunkBits, math.Float64bits(v))
		}
	}
	return rp.cl.Report(m)
}

func ckptPath(dir string, rank, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%03d-i%06d.bin", rank, iter))
}

// writeCkpt persists a rank's checkpoint record atomically: temp file,
// fsync, rename. A rank acknowledges an op only after this returns, so
// every boundary the coordinator resumes from names files every rank can
// read.
func writeCkpt(dir string, rank, iter int, rec []byte) error {
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(rec); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), ckptPath(dir, rank, iter))
}
