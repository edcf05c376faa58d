package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/netwire"
	"repro/internal/parallel"
)

// Proc is a spawned rank process as the supervisor sees it: enough to
// learn of its exit, to reap it and to put it down on an error exit.
// Wait must block until the process has exited; the supervisor calls it
// once, from a goroutine of its own, while Kill may come at any time.
type Proc interface {
	Kill() error
	Wait() error
}

// Spawner launches the process hosting one rank. It is a hook so the
// kill-9 suite can spawn re-exec'd test helpers and track their pids; the
// CLI spawns os.Executable with -rank=K.
type Spawner func(rank int) (Proc, error)

// SuperviseOptions configures a coordinator run.
type SuperviseOptions struct {
	Config
	// CtlAddr is the control listen address ("127.0.0.1:0" when empty and
	// the network is tcp). The resolved address is what Spawner's processes
	// must dial, available via the OnListen callback.
	CtlAddr string
	// Spawn launches one rank process. Required.
	Spawn Spawner
	// OnListen, when set, receives the resolved control address before any
	// rank is spawned.
	OnListen func(addr string)
	// OnCheckpoint, when set, observes every durable acknowledgement: rank
	// finished an op and its checkpoint for boundary iter is on disk. The
	// kill-9 suite's injection point.
	OnCheckpoint func(rank, iter int)
	// Recovery bounds the failed attempts of one op exactly as it bounds
	// a Session dispatch (MaxRetries+1 replays, default 3+1).
	Recovery parallel.RecoveryOptions
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

// Outcome is a completed distributed power method.
type Outcome struct {
	Lambda     float64
	X          []float64
	Iterations int
	Converged  bool
	Singular   bool
	// Respawns counts rank processes restarted after dying mid-run.
	Respawns int
	// FinalEpoch is the wire epoch the run committed in (0 when nothing
	// failed).
	FinalEpoch int64
}

// attemptError is an attempt that failed the way recovery absorbs: a rank
// died, or fenced itself without being told to.
type attemptError struct{ cause string }

func (e *attemptError) Error() string { return e.cause }

// supervisor is the coordinator's state: the rank processes, which of
// them are registered, which owe a quiesced for the last aborted epoch,
// and the current epoch.
type supervisor struct {
	opt      SuperviseOptions
	co       *netwire.Coordinator
	p        int
	procs    []*child
	present  []bool
	owes     []bool
	epoch    int64
	up       bool // every rank is ready in the current epoch
	respawns int
	timeout  time.Duration
	deadline *time.Timer

	exits   chan *child   // each child, once its Wait has returned
	stop    chan struct{} // closed as Supervise returns: waiters stop sending
	waiters sync.WaitGroup
}

// child is one spawned rank process. Its waiter goroutine closes exited
// when Wait returns, then reports the exit on the supervisor's exits.
type child struct {
	rank   int
	proc   Proc
	exited chan struct{}
}

// Supervise runs the coordinator side of a distributed power method with
// the Session's recovery protocol: each iteration is one op dispatched
// to all P rank processes, and the boundary after it commits once all P
// have acknowledged it with a durable checkpoint. An attempt that fails —
// a rank dies, or one fences itself — aborts the epoch, waits for the
// survivors to quiesce, respawns the dead, resumes everyone from the
// committed boundary one epoch later and replays the op, within the
// per-op budget of SuperviseOptions.Recovery. The assembled result is
// bit-identical to the single-process simulated run.
func Supervise(opt SuperviseOptions) (*Outcome, error) {
	cfg := opt.Config.withDefaults()
	part, b, err := cfg.layout()
	if err != nil {
		return nil, err
	}
	if _, err := cfg.faultPlan(); err != nil {
		return nil, err
	}
	if len(cfg.Hosts) > 0 {
		if cfg.Network != "tcp" {
			return nil, fmt.Errorf("cluster: hosts file requires the tcp network")
		}
		if len(cfg.Hosts) != part.P {
			return nil, fmt.Errorf("cluster: hosts file lists %d hosts for %d ranks", len(cfg.Hosts), part.P)
		}
	}
	if opt.Spawn == nil {
		return nil, fmt.Errorf("cluster: no spawner")
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	ctlAddr := opt.CtlAddr
	if ctlAddr == "" {
		if cfg.Network != "tcp" {
			return nil, fmt.Errorf("cluster: network %q needs an explicit control address", cfg.Network)
		}
		ctlAddr = "127.0.0.1:0"
	}
	p := part.P

	co, err := netwire.NewCoordinator(cfg.Network, ctlAddr, p)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	if opt.OnListen != nil {
		opt.OnListen(co.Addr())
	}
	sv := &supervisor{
		opt: opt, co: co, p: p,
		procs:    make([]*child, p),
		present:  make([]bool, p),
		owes:     make([]bool, p),
		timeout:  timeout,
		deadline: time.NewTimer(timeout),
		exits:    make(chan *child),
		stop:     make(chan struct{}),
	}
	defer sv.deadline.Stop()
	defer func() {
		for r := range sv.procs {
			sv.reap(r)
		}
		close(sv.stop)
		sv.waiters.Wait()
	}()
	for r := 0; r < p; r++ {
		if err := sv.spawn(r); err != nil {
			return nil, err
		}
	}

	// One op per iteration; a failed attempt replays the op from the
	// committed boundary k in the next epoch.
	var done []netwire.CtlMsg
	for k, failures := 0, 0; ; {
		var err error
		done, err = sv.attempt(k)
		if err == nil {
			if done[0].Stop || k+1 == cfg.MaxIter {
				break
			}
			k, failures = k+1, 0
			continue
		}
		var ae *attemptError
		if !errors.As(err, &ae) {
			return nil, err
		}
		failures++
		if opt.Recovery.Exhausted(failures) {
			return nil, fmt.Errorf("cluster: op %d failed %d times, last because %v; recovery budget of %d replays exhausted",
				k, failures, err, failures-1)
		}
		sv.abort()
	}
	co.Stop()

	// The final op's acknowledgements agree on every flag and carry the
	// owned chunks, which assemble into the eigenvector.
	first := done[0]
	owned := make([][]float64, p)
	for r, d := range done {
		if d.LambdaBits != first.LambdaBits || d.Stop != first.Stop ||
			d.Converged != first.Converged || d.Singular != first.Singular {
			return nil, fmt.Errorf("cluster: rank %d outcome diverges from rank 0 (λ bits %x vs %x)", r, d.LambdaBits, first.LambdaBits)
		}
		owned[r] = make([]float64, len(d.ChunkBits))
		for i, bv := range d.ChunkBits {
			owned[r][i] = math.Float64frombits(bv)
		}
	}
	x, err := parallel.AssemblePower(part, b, cfg.N, owned)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Lambda:     math.Float64frombits(first.LambdaBits),
		X:          x,
		Iterations: first.Iter + 1,
		Converged:  first.Converged,
		Singular:   first.Singular,
		Respawns:   sv.respawns,
		FinalEpoch: sv.epoch,
	}, nil
}

// attempt runs op k once: bring every rank up at boundary k unless the
// epoch already has them ready, dispatch the op, and collect all P done.
func (sv *supervisor) attempt(k int) ([]netwire.CtlMsg, error) {
	if !sv.up {
		if err := sv.bringUp(k); err != nil {
			return nil, err
		}
		sv.up = true
	}
	sv.co.Op(sv.epoch, k)
	done := make([]netwire.CtlMsg, sv.p)
	for n := 0; n < sv.p; {
		ev, err := sv.next()
		if err != nil {
			return nil, err
		}
		if ev.Type != "done" || ev.Iter != k || done[ev.Rank].Type != "" {
			continue
		}
		done[ev.Rank] = ev
		n++
		if sv.opt.OnCheckpoint != nil {
			sv.opt.OnCheckpoint(ev.Rank, k+1)
		}
	}
	return done, nil
}

// bringUp starts the current epoch at boundary k: respawn the dead, wait
// until all P are registered and every survivor has quiesced, resume, and
// wait for P ready.
func (sv *supervisor) bringUp(k int) error {
	for r, pr := range sv.procs {
		if pr == nil {
			if err := sv.spawn(r); err != nil {
				return err
			}
			sv.respawns++
		}
	}
	for !sv.settled() {
		if _, err := sv.next(); err != nil {
			return err
		}
	}
	if err := sv.co.Resume(sv.epoch, k); err != nil {
		return err
	}
	ready := make([]bool, sv.p)
	for n := 0; n < sv.p; {
		ev, err := sv.next()
		if err != nil {
			return err
		}
		if ev.Type == "ready" && !ready[ev.Rank] {
			ready[ev.Rank] = true
			n++
		}
	}
	return nil
}

// settled reports whether every rank is registered and none owes a
// quiesced.
func (sv *supervisor) settled() bool {
	for r := range sv.present {
		if !sv.present[r] || sv.owes[r] {
			return false
		}
	}
	return true
}

// abort fences the current epoch: every registered rank owes a quiesced
// for it, and the next attempt brings everyone up one epoch later.
func (sv *supervisor) abort() {
	sv.co.AbortEpoch(sv.epoch)
	copy(sv.owes, sv.present)
	sv.epoch++
	sv.up = false
}

// next returns the next rank message after applying the registration
// and quiesce bookkeeping it carries. A rank's death or self-fence fails
// the attempt with an *attemptError; ready and done messages of fenced
// epochs are dropped.
//
// A registered rank's death arrives as a down event, when the coordinator
// sees its connection close. A process that exits before its hello has
// no registration to lose, so its exit is the only sign: an exit counts
// as a death when its rank is not registered. Coordinator events go
// first, so a hello and down already queued for the process are handled
// before its exit; a hello the coordinator reads only after that is
// dropped while the rank has no process, and a down for an unregistered
// rank is stale.
func (sv *supervisor) next() (netwire.CtlMsg, error) {
	for {
		var ev netwire.CtlMsg
		select {
		case ev = <-sv.co.Events():
		case <-sv.deadline.C:
			return ev, sv.timedOut()
		default:
			select {
			case ev = <-sv.co.Events():
			case ch := <-sv.exits:
				if sv.procs[ch.rank] != ch || sv.present[ch.rank] {
					continue
				}
				sv.procs[ch.rank] = nil
				return ev, &attemptError{fmt.Sprintf("rank %d exited before registering", ch.rank)}
			case <-sv.deadline.C:
				return ev, sv.timedOut()
			}
		}
		r := ev.Rank
		switch ev.Type {
		case "hello":
			if sv.procs[r] == nil {
				continue
			}
			sv.present[r] = true
		case "down":
			if !sv.present[r] {
				continue
			}
			sv.present[r], sv.owes[r] = false, false
			sv.reap(r)
			return ev, &attemptError{fmt.Sprintf("rank %d died", r)}
		case "quiesced":
			if ev.Epoch == sv.epoch {
				return ev, &attemptError{fmt.Sprintf("rank %d fenced itself", r)}
			}
			if ev.Epoch == sv.epoch-1 {
				sv.owes[r] = false
			}
		default:
			if ev.Epoch != sv.epoch {
				continue
			}
		}
		return ev, nil
	}
}

func (sv *supervisor) timedOut() error {
	return fmt.Errorf("cluster: run exceeded %v (epoch %d)", sv.timeout, sv.epoch)
}

// spawn launches rank r's process and its waiter, which reports the exit
// until Supervise returns.
func (sv *supervisor) spawn(r int) error {
	pr, err := sv.opt.Spawn(r)
	if err != nil {
		return fmt.Errorf("cluster: spawn rank %d: %w", r, err)
	}
	ch := &child{rank: r, proc: pr, exited: make(chan struct{})}
	sv.procs[r] = ch
	sv.waiters.Add(1)
	go func() {
		defer sv.waiters.Done()
		// The exit status is moot: the supervisor either caused the death
		// or counts it as one.
		_ = pr.Wait()
		close(ch.exited)
		select {
		case sv.exits <- ch:
		case <-sv.stop:
		}
	}()
	return nil
}

// reap puts rank r's process down and waits for it to exit, so none
// outlives the supervisor. Kill's error is moot: it fails only on a
// process that has already exited.
func (sv *supervisor) reap(r int) {
	if ch := sv.procs[r]; ch != nil {
		_ = ch.proc.Kill()
		<-ch.exited
		sv.procs[r] = nil
	}
}
