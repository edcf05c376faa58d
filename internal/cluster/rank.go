package cluster

import (
	"fmt"
	"math"
	"os"

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

// RunRank is a rank process's entire life: register with the coordinator,
// then loop the resume → restore → ready → go → iterate cycle until told
// to stop. Each go launches a fresh distributed machine incarnation whose
// only local rank is this one; an epoch abort (someone else was killed)
// unwinds the body through the machine's abort sentinel, reports
// quiesced, and waits for the next resume. Loss of the control connection
// terminates the process — an orphaned rank must not outlive its
// supervisor.
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
	events := cl.Events()
	trace := func(format string, a ...any) {
		if os.Getenv("STTSV_CLUSTER_DEBUG") != "" {
			fmt.Fprintf(os.Stderr, "rank %d: "+format+"\n", append([]any{opt.Rank}, a...)...)
		}
	}

	for {
		// Park until the coordinator resumes (or retires) us. An abort
		// arriving here — this rank finished or was respawned while others
		// still ran — needs only the quiesced acknowledgment.
		var rs netwire.CtlEvent
	await:
		for {
			ev, ok := <-events
			if !ok {
				return fmt.Errorf("cluster: rank %d lost the coordinator", opt.Rank)
			}
			switch ev.Type {
			case "stop":
				return nil
			case "abort":
				cl.Quiesced(ev.Epoch)
			case "resume":
				rs = ev
				break await
			default:
				trace("await: ignoring %q", ev.Type)
			}
		}
		epoch, startIter := rs.Epoch, rs.Iter
		trace("resume epoch %d iter %d", epoch, startIter)
		if startIter == 0 {
			eng.SeedPower(cfg.Seed)
		} else {
			st, err := readCkpt(cfg.CkptDir, opt.Rank, startIter)
			if err != nil {
				return err
			}
			if err := eng.Restore(st); err != nil {
				return err
			}
		}
		if err := cl.Ready(epoch); err != nil {
			return err
		}

		// Await the go (all ranks restored) — or an abort, if another rank
		// died between our ready and the release.
		aborted := false
	release:
		for {
			ev, ok := <-events
			if !ok {
				return fmt.Errorf("cluster: rank %d lost the coordinator", opt.Rank)
			}
			switch ev.Type {
			case "stop":
				return nil
			case "abort":
				cl.Quiesced(ev.Epoch)
				aborted = true
				break release
			case "go":
				trace("go (epoch %d)", epoch)
				break release
			}
		}
		if aborted {
			continue
		}

		// One machine incarnation: iterate from startIter, checkpointing
		// durably before each control-plane acknowledgment.
		var (
			finalIter           = startIter
			converged, singular bool
			done                bool
			ckptErr             error
		)
		runCfg := machine.RunConfig{
			Backend:    cl,
			LocalRanks: []int{opt.Rank},
			StartEpoch: epoch,
		}
		if plan.Active() {
			// Chaos-perturbed frames need the reliable transport above the
			// wire. The retry budget is effectively unbounded — the
			// supervisor's abort, not the transport, decides when a silent
			// peer means a dead rank.
			runCfg.Transport = fault.Transport(fault.Plan{}, fault.ReliableOptions{MaxAttempts: 1 << 20})
		}
		h, err := machine.StartWith(part.P, runCfg, func(c *machine.Comm) {
			defer func() {
				if r := recover(); r != nil {
					if machine.IsAbort(r) {
						return // epoch fenced; state rolls back to the last checkpoint
					}
					panic(r)
				}
			}()
			for iter := startIter; iter < cfg.MaxIter; {
				stop, conv, sing := eng.Iterate(c, cfg.Tol)
				iter++
				trace("epoch %d: completed iter %d", epoch, iter)
				if err := writeCkpt(cfg.CkptDir, opt.Rank, iter, eng.State()); err != nil {
					ckptErr = err
					return
				}
				cl.Ckpt(iter)
				finalIter, converged, singular = iter, conv, sing
				if stop {
					break
				}
			}
			// Leave only once every rank has: each arrives after all its
			// sends were acknowledged, so no peer is still retransmitting
			// into this process when its transport stops lingering.
			c.Barrier()
			done = true
		})
		if err != nil {
			return err
		}

		// Drive the machine while watching the control plane: an abort
		// order fences the epoch and unwinds the body.
		waitCh := make(chan error, 1)
		go func() {
			_, werr := h.Wait()
			waitCh <- werr
		}()
		var abortedEpoch = int64(-1)
		stopping := false
	running:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					h.Abort()
					<-waitCh
					return fmt.Errorf("cluster: rank %d lost the coordinator", opt.Rank)
				}
				switch ev.Type {
				case "abort":
					abortedEpoch = ev.Epoch
					h.Abort()
				case "stop":
					stopping = true
					h.Abort()
				}
			case werr := <-waitCh:
				if werr != nil {
					return werr
				}
				break running
			}
		}
		if ckptErr != nil {
			return ckptErr
		}
		if stopping {
			return nil
		}
		if abortedEpoch >= 0 {
			trace("aborted at epoch %d, quiescing", abortedEpoch)
			cl.Quiesced(abortedEpoch)
			continue
		}
		if !done {
			trace("epoch %d: body unwound without done", epoch)
			// The body unwound through the abort sentinel without a local
			// abort order: the machine fenced the epoch internally. Park and
			// report; the coordinator decides what happens next.
			cl.Quiesced(epoch)
			continue
		}

		// Completed every iteration: ship the outcome. The process then
		// parks again — a peer killed after this rank finished still needs
		// the survivors to replay from the committed checkpoint.
		chunk := eng.OwnedWords()
		bits := make([]uint64, len(chunk))
		for i, v := range chunk {
			bits[i] = math.Float64bits(v)
		}
		trace("epoch %d: result after iter %d", epoch, finalIter)
		if err := cl.Result(math.Float64bits(eng.Lambda()), finalIter, converged, singular, bits); err != nil {
			return err
		}
	}
}
