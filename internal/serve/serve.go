// Package serve is the multi-tenant serving tier over the resident
// session engine: a pool of N parallel.Sessions sharing one immutable
// packed tensor (parallel.RankBlocks), an admission queue, and a
// dual-trigger batching scheduler that coalesces concurrent Apply
// requests from independent clients into single multi-column ApplyBatch
// calls.
//
// The economics come straight from the paper's schedule: a step's message
// count is independent of how many columns the message carries, so r
// coalesced requests cost r× the words but 1× the messages of a solo
// apply — the α (per-message) term, which dominates at the paper's block
// sizes, is split r ways. The batcher turns that property into serving
// throughput. How far a batch outruns serial applies depends on what a
// message costs, so the pool is held instead to what its sessions can
// deliver: under concurrent load its request rate stays close to the
// column rate of back-to-back MaxCols-wide ApplyBatch calls on as many
// solo sessions, with batches near MaxCols full and at least 3× a serial
// client's rate (the gates of `sttsvbench -serve -check`).
//
// Batching policy (dual trigger): an arriving request opens a batch; the
// batch flushes when it reaches MaxCols columns (size trigger) or when
// its oldest member has waited MaxWait (latency trigger), whichever comes
// first. Requests are admitted in FIFO order and batches are formed from
// consecutive arrivals, so no request can be overtaken by a later one
// into an earlier flush; a drained batch (pool closing) flushes whatever
// it holds. Each flush claims a free session, runs one ApplyBatch, and
// demultiplexes the per-column outputs — and each request's amortized
// share of the phase meters — back to the callers.
//
// Every response is bit-identical to a solo Session.Apply of the same
// vector: ApplyBatch's column independence (proved by the session
// conformance suite) is what makes transparent coalescing sound.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// Options configures a serving pool.
type Options struct {
	// Session is the engine configuration template every pooled session
	// is opened with: partition, block edge, wiring, machine config,
	// recovery. Session.Blocks, when nil, is packed once at pool open and
	// shared read-only across all sessions — the tensor is extracted
	// once, not once per session. Session.MaxCols is raised to the pool's
	// MaxCols so arenas are presized for full batches.
	Session parallel.Options
	// Sessions is the pool size N. Default 1.
	Sessions int
	// MaxCols is the size flush trigger: a batch flushes the moment it
	// holds this many columns. Default 8.
	MaxCols int
	// MaxWait is the latency flush trigger: a batch flushes once its
	// oldest request has waited this long, full or not. Default 500µs.
	MaxWait time.Duration
	// QueueCap bounds the admission queue; a request arriving on a full
	// queue is rejected with *BusyError rather than queued without bound.
	// Default 4 × Sessions × MaxCols.
	QueueCap int
}

func (o Options) withDefaults() Options {
	if o.Sessions < 1 {
		o.Sessions = 1
	}
	if o.MaxCols < 1 {
		o.MaxCols = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 500 * time.Microsecond
	}
	if o.QueueCap < 1 {
		o.QueueCap = 4 * o.Sessions * o.MaxCols
	}
	return o
}

// Trigger records which of the two flush conditions fired a batch.
type Trigger uint8

const (
	// TriggerSize: the batch reached MaxCols columns.
	TriggerSize Trigger = iota
	// TriggerWait: the oldest request hit the MaxWait deadline.
	TriggerWait
	// TriggerDrain: the pool was closing and flushed the remainder.
	TriggerDrain
)

func (t Trigger) String() string {
	switch t {
	case TriggerSize:
		return "size"
	case TriggerWait:
		return "wait"
	case TriggerDrain:
		return "drain"
	}
	return fmt.Sprintf("Trigger(%d)", uint8(t))
}

// Response is one tenant's demultiplexed slice of a coalesced batch.
type Response struct {
	// Y is the result vector, bit-identical to a solo Session.Apply of
	// the request vector.
	Y []float64
	// BatchCols is how many requests shared the flush that served this
	// one (1 = the request rode alone).
	BatchCols int
	// Trigger is the flush condition that fired the batch.
	Trigger Trigger
	// QueueWait is the time from admission to flush dispatch — bounded by
	// MaxWait plus the wait for a free session.
	QueueWait time.Duration
	// Service is the wall time of the batch's ApplyBatch call.
	Service time.Duration
	// Shares is this request's amortized slice of the batch's per-phase
	// meters (exact per-column words and compute, 1/cols messages).
	Shares []parallel.PhaseShare
	// Steps is the schedule length per exchange phase.
	Steps int
}

// SentWords sums the response's per-phase word shares.
func (r *Response) SentWords() int64 {
	var w int64
	for _, sh := range r.Shares {
		w += sh.SentWords
	}
	return w
}

// SentMsgs sums the response's amortized per-phase message shares.
func (r *Response) SentMsgs() float64 {
	var m float64
	for _, sh := range r.Shares {
		m += sh.SentMsgs
	}
	return m
}

type outcome struct {
	resp *Response
	err  error
}

type request struct {
	tenant string
	x      []float64
	enq    time.Time
	done   chan outcome
}

// Pool is the serving tier: call Apply from any number of goroutines;
// Close drains the queue, flushes the remainder, and retires the
// sessions.
type Pool struct {
	opts   Options
	n      int // required request vector length
	sess   []*parallel.Session
	free   chan *parallel.Session
	queue  chan *request
	met    *metrics
	booted time.Time

	mu     sync.RWMutex // guards closed against queue sends
	closed bool

	schedDone chan struct{}
	flushes   sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open packs the tensor once, launches the session pool, and starts the
// batching scheduler. The tensor may be nil (full-size, zero-valued blocks
// that the kernel still runs over — the serving dimension is then the
// padded partition dimension m·b).
func Open(a *tensor.Symmetric, opts Options) (*Pool, error) {
	o := opts.withDefaults()
	so := o.Session
	if so.Part == nil {
		return nil, fmt.Errorf("serve: nil partition")
	}
	if so.B < 1 {
		return nil, fmt.Errorf("serve: block edge %d", so.B)
	}
	if so.MaxCols < o.MaxCols {
		so.MaxCols = o.MaxCols
	}
	if so.Blocks == nil {
		blocks, err := parallel.PackRankBlocks(a, so.Part, so.B)
		if err != nil {
			return nil, err
		}
		so.Blocks = blocks
	}
	o.Session = so
	n := so.Part.M * so.B
	if a != nil {
		n = a.N
	}
	return openPool(n, o, func(int) (*parallel.Session, error) {
		return parallel.OpenSession(a, so)
	})
}

// OpenSparse launches a pool of sparse sessions over one shared packed
// sparse block set: the tensor's nonzeros are packed once (sorted
// coordinate runs, 20 bytes per nonzero) and every pooled session reads
// the same immutable cache — the sparse analogue of Open's one-time dense
// extraction, and the configuration that serves hypergraph problems at
// n ≥ 10⁶ where a dense pool could not allocate a single session.
// Responses are bit-identical to a solo sparse Session.Apply, which the
// parallel conformance suite pins to the dense scalar-kernel session.
func OpenSparse(sp *sparse.Tensor, opts Options) (*Pool, error) {
	if sp == nil {
		return nil, fmt.Errorf("serve: nil sparse tensor")
	}
	o := opts.withDefaults()
	so := o.Session
	if so.Part == nil {
		return nil, fmt.Errorf("serve: nil partition")
	}
	if so.B < 1 {
		return nil, fmt.Errorf("serve: block edge %d", so.B)
	}
	if so.MaxCols < o.MaxCols {
		so.MaxCols = o.MaxCols
	}
	if so.Sparse == nil {
		srb, err := parallel.PackSparseRankBlocks(sp, so.Part, so.B)
		if err != nil {
			return nil, err
		}
		so.Sparse = srb
	}
	o.Session = so
	return openPool(sp.N, o, func(int) (*parallel.Session, error) {
		return parallel.OpenSession(nil, so)
	})
}

// OpenCP launches a pool of low-rank CP sessions over one shared
// operator (O(nr) words, read-only). ranks is the per-session rank
// count; the pool Options' Machine and Recovery settings carry over from
// the Session template, while partitioning fields are ignored — a CP
// session synthesizes its own row layout. Per-request communication is
// O(r) words per rank regardless of n, so a CP pool batches exactly like
// a tetrahedral one but serves n ≥ 10⁶ from megabytes of state.
func OpenCP(op *sttsv.CPOperator, ranks int, opts Options) (*Pool, error) {
	if op == nil {
		return nil, fmt.Errorf("serve: nil CP operator")
	}
	o := opts.withDefaults()
	maxCols := o.Session.MaxCols
	if maxCols < o.MaxCols {
		maxCols = o.MaxCols
	}
	copts := parallel.CPOptions{
		P:        ranks,
		Machine:  o.Session.Machine,
		MaxCols:  maxCols,
		Recovery: o.Session.Recovery,
	}
	return openPool(op.N, o, func(int) (*parallel.Session, error) {
		return parallel.OpenCPSession(op, copts)
	})
}

// openPool is the shared pool-construction core: it launches Sessions
// sessions via open, wires the free list and admission queue, and starts
// the batching scheduler. n is the serving dimension.
func openPool(n int, o Options, open func(i int) (*parallel.Session, error)) (*Pool, error) {
	p := &Pool{
		opts:      o,
		n:         n,
		free:      make(chan *parallel.Session, o.Sessions),
		queue:     make(chan *request, o.QueueCap),
		met:       newMetrics(),
		booted:    time.Now(),
		schedDone: make(chan struct{}),
	}
	for i := 0; i < o.Sessions; i++ {
		s, err := open(i)
		if err != nil {
			for _, prev := range p.sess {
				prev.Close()
			}
			return nil, fmt.Errorf("serve: session %d: %w", i, err)
		}
		p.sess = append(p.sess, s)
		p.free <- s
	}
	go p.scheduler()
	return p, nil
}

// Dim returns the request vector length the pool serves.
func (p *Pool) Dim() int { return p.n }

// Apply submits one tenant request and blocks until its batch completes.
// The call is safe from any number of goroutines; requests are admitted
// FIFO and coalesced with concurrent arrivals. A full queue fails fast
// with *BusyError (matching errors.Is(err, parallel.ErrSessionBusy)); a
// closed pool fails with ErrPoolClosed. A tenant name longer than 256
// bytes is refused.
func (p *Pool) Apply(tenant string, x []float64) (*Response, error) {
	if len(x) != p.n {
		return nil, fmt.Errorf("serve: vector length %d, serving dimension %d", len(x), p.n)
	}
	if len(tenant) > maxTenantName {
		return nil, fmt.Errorf("serve: tenant name of %d bytes, at most %d", len(tenant), maxTenantName)
	}
	req := &request{tenant: tenant, x: x, enq: time.Now(), done: make(chan outcome, 1)}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- req:
		p.mu.RUnlock()
	default:
		depth := len(p.queue)
		p.mu.RUnlock()
		p.met.reject(tenant)
		return nil, &BusyError{QueueDepth: depth, QueueCap: p.opts.QueueCap, RetryAfter: p.retryHint(depth)}
	}
	out := <-req.done
	return out.resp, out.err
}

// retryHint estimates how long a rejected caller should back off: the
// queued backlog in batches times the measured per-batch service time,
// plus one batching window. Before any batch has completed it falls back
// to the batching window alone.
func (p *Pool) retryHint(depth int) time.Duration {
	hint := p.opts.MaxWait
	if avg := p.met.avgServiceNs(); avg > 0 {
		batches := int64(depth/p.opts.MaxCols + 1)
		hint += time.Duration(batches * avg)
	}
	return hint
}

// scheduler is the single batching goroutine: it forms batches from the
// FIFO queue under the dual trigger and hands each to a free session.
// Forming the next batch does not require a session — the fill window
// overlaps fully with in-flight batches — but dispatch blocks until one
// frees up, which is what backpressures the queue.
func (p *Pool) scheduler() {
	defer close(p.schedDone)
	for {
		first, ok := <-p.queue
		if !ok {
			return
		}
		batch, trig := p.fill(first)
		sess := <-p.free
		p.flushes.Add(1)
		go p.flush(sess, batch, trig)
	}
}

// fillYields bounds the yields fill makes before it arms the latency
// timer. With one session and 8 closed-loop clients on 2 vCPUs, 8 yields
// still left the timer armed for 28–29% of batches and 64 for 4–5%. A
// yield with nothing else runnable takes ≈0.15 µs, so a lone request
// spends ≈10 µs on them before its timer.
const fillYields = 64

// fill grows a batch from consecutive queue arrivals until the size
// trigger (MaxCols reached), the latency trigger (the first request's
// MaxWait deadline), or the drain trigger (queue closed) fires.
//
// Already-queued requests join unconditionally first: under backlog the
// oldest request is past its MaxWait deadline the moment it is dequeued,
// and consulting the deadline before draining would flush singleton
// batches exactly when coalescing matters most. The latency trigger only
// bounds how long a non-full batch waits for requests that have not
// arrived yet.
//
// Before it arms the latency timer, fill yields the processor up to
// fillYields times, so callers that are already runnable — typically the
// clients of the batch that just finished, each about to submit its next
// request — join without one. A timer armed per batch costs the runtime
// thread wake-ups that land in the next batch's ApplyBatch: with one
// session and 8 closed-loop clients on 2 vCPUs, where nearly every batch
// armed one, they made a batch ≈15% slower than a direct call.
func (p *Pool) fill(first *request) ([]*request, Trigger) {
	batch := []*request{first}
	// drain appends already-queued requests; it reports a closed queue.
	drain := func() (closed bool) {
		for len(batch) < p.opts.MaxCols {
			select {
			case r, ok := <-p.queue:
				if !ok {
					return true
				}
				batch = append(batch, r)
			default:
				return false
			}
		}
		return false
	}
	if drain() {
		return batch, TriggerDrain
	}
	for i := 0; i < fillYields && len(batch) < p.opts.MaxCols && time.Since(first.enq) < p.opts.MaxWait; i++ {
		runtime.Gosched()
		if drain() {
			return batch, TriggerDrain
		}
	}
	if len(batch) == p.opts.MaxCols {
		return batch, TriggerSize
	}
	wait := p.opts.MaxWait - time.Since(first.enq)
	if wait <= 0 {
		return batch, TriggerWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for len(batch) < p.opts.MaxCols {
		select {
		case r, ok := <-p.queue:
			if !ok {
				return batch, TriggerDrain
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch, TriggerWait
		}
	}
	return batch, TriggerSize
}

// flush runs one coalesced batch on sess and demultiplexes the outcome.
// The session returns to the free list as soon as ApplyBatch is done
// (the batch result owns fresh column copies), before the per-request
// fan-out.
func (p *Pool) flush(sess *parallel.Session, batch []*request, trig Trigger) {
	defer p.flushes.Done()
	X := make([][]float64, len(batch))
	for i, r := range batch {
		X[i] = r.x
	}
	start := time.Now()
	br, err := sess.ApplyBatch(X)
	service := time.Since(start)
	p.free <- sess
	if err != nil {
		err = fmt.Errorf("serve: batch of %d failed: %w", len(batch), err)
		p.met.flush(batch, trig, service, nil, start, true)
		for _, r := range batch {
			r.done <- outcome{err: err}
		}
		return
	}
	shares := br.Shares()
	p.met.flush(batch, trig, service, shares, start, false)
	for l, r := range batch {
		r.done <- outcome{resp: &Response{
			Y:         br.Y[l],
			BatchCols: len(batch),
			Trigger:   trig,
			QueueWait: start.Sub(r.enq),
			Service:   service,
			Shares:    shares,
			Steps:     br.Steps,
		}}
	}
}

// Metrics returns the pool's serving counters so far, in the obs
// serving-metrics shape (exportable with obs.WriteServingMetricsJSONL).
// Past 1,024 tenants, later names share one "(other)" row.
func (p *Pool) Metrics() obs.ServingSnapshot {
	return p.met.snapshot(p.opts.Sessions, p.opts.MaxCols, p.opts.MaxWait)
}

// RecoveryStats sums the crash-recovery supervisor counters across the
// pooled sessions (all zero unless Options.Session.Recovery was set).
// Each recovery incident is attributed once to the session that absorbed
// it, regardless of how many tenant columns the aborted batch carried.
func (p *Pool) RecoveryStats() parallel.RecoveryStats {
	var total parallel.RecoveryStats
	for _, s := range p.sess {
		st := s.RecoveryStats()
		total.RankDowns += st.RankDowns
		total.Retries += st.Retries
		total.Rollbacks += st.Rollbacks
		total.Relaunches += st.Relaunches
		total.Verifications += st.Verifications
		total.Mismatches += st.Mismatches
		total.CheckpointWords += st.CheckpointWords
		total.CheckpointNanos += st.CheckpointNanos
		total.RestoreNanos += st.RestoreNanos
		if st.Epoch > total.Epoch {
			total.Epoch = st.Epoch
		}
	}
	return total
}

// Close stops admission, drains the queue (every already-admitted
// request is served), waits for in-flight batches, and retires the
// sessions. Safe to call more than once; Apply after Close returns
// ErrPoolClosed.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		close(p.queue)
		p.mu.Unlock()
		<-p.schedDone
		p.flushes.Wait()
		for _, s := range p.sess {
			if err := s.Close(); err != nil && p.closeErr == nil {
				p.closeErr = err
			}
		}
	})
	return p.closeErr
}
