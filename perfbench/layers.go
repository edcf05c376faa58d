package main

import (
	"sync"
	"time"

	"repro/internal/machine"
)

// The per-layer breakdown is read off the machine's event stream. A rank
// emits its events synchronously from its own goroutine, so the wall time
// between two consecutive events of one rank is charged to the layer the
// later event closes:
//
//	phase-begin "gather"  the rank was parked between dispatches, then
//	                      staged its input: host time, charged to no rank
//	                      layer
//	send                  pack: copying the message out of the arenas
//	recv                  transfer: the transport send of the step plus the
//	                      wait until the peer's message arrived
//	barrier               sync: unpacking the message plus the barrier wait
//	local-compute         kernel: the rank's block contributions
//	anything else         rank_other: zeroing, λ scalars, phase bookkeeping
//
// Layer times are means over ranks, per request. host_us is the request
// latency the rank layers leave unexplained: host dispatch and park,
// staging, publishing, result assembly, and in the serving pool the queue
// wait and batch formation. The layers therefore sum to latency_us, the
// traced mean request latency.
const (
	layerPack = iota
	layerTransfer
	layerSync
	layerKernel
	layerOther
	numLayers
)

var layerNames = [numLayers]string{"pack_us", "transfer_us", "sync_us", "kernel_us", "rank_other_us"}

// rankClock is one rank's attribution state. Only the rank's goroutine
// writes it while the machine runs; the mutex orders those writes against
// the host's reset and final read.
type rankClock struct {
	mu         sync.Mutex
	last       time.Duration
	ns         [numLayers]int64
	dispatches int64
	barriers   int64
	sentWords  int64
	sentMsgs   int64
	ternary    int64
}

type tracer struct {
	epoch time.Time
	ranks []rankClock
}

func newTracer(p int) *tracer {
	return &tracer{epoch: time.Now(), ranks: make([]rankClock, p)}
}

// observe is the machine.RunConfig observer.
func (t *tracer) observe(e machine.Event) {
	if e.Wire || e.Rank < 0 || e.Rank >= len(t.ranks) {
		return
	}
	now := time.Since(t.epoch)
	rc := &t.ranks[e.Rank]
	rc.mu.Lock()
	d := int64(now - rc.last)
	rc.last = now
	switch e.Kind {
	case machine.EventPhaseBegin:
		if e.Phase == "gather" {
			rc.dispatches++
		} else {
			rc.ns[layerOther] += d
		}
	case machine.EventSend:
		rc.ns[layerPack] += d
		rc.sentWords += int64(e.Words)
		rc.sentMsgs++
	case machine.EventRecv:
		rc.ns[layerTransfer] += d
	case machine.EventBarrier:
		rc.ns[layerSync] += d
		rc.barriers++
	case machine.EventLocalCompute:
		rc.ns[layerKernel] += d
		rc.ternary += e.Ternary
	default:
		rc.ns[layerOther] += d
	}
	rc.mu.Unlock()
}

// reset zeroes the counters (after warm-up), keeping each rank's clock.
func (t *tracer) reset() {
	for i := range t.ranks {
		rc := &t.ranks[i]
		rc.mu.Lock()
		rc.ns = [numLayers]int64{}
		rc.dispatches, rc.barriers, rc.sentWords, rc.sentMsgs, rc.ternary = 0, 0, 0, 0, 0
		rc.mu.Unlock()
	}
}

// layerRun is what the driver measured alongside the trace.
type layerRun struct {
	requests     int
	meanLatency  float64 // seconds
	dispatchesPR int     // session dispatches per request
	allocs       uint64  // heap allocations in the window
	ckWords      int64   // checkpoint words copied in the window
}

// metrics folds the rank clocks into the per-layer metrics.
func (t *tracer) metrics(lr layerRun) map[string]metric {
	p := float64(len(t.ranks))
	var ns [numLayers]int64
	var ternary, maxWords, maxMsgs int64
	for i := range t.ranks {
		rc := &t.ranks[i]
		rc.mu.Lock()
		for l := range ns {
			ns[l] += rc.ns[l]
		}
		ternary += rc.ternary
		maxWords = max(maxWords, rc.sentWords)
		maxMsgs = max(maxMsgs, rc.sentMsgs)
		rc.mu.Unlock()
	}
	rank0 := &t.ranks[0]
	rank0.mu.Lock()
	dispatches, barriers := float64(rank0.dispatches), float64(rank0.barriers)
	rank0.mu.Unlock()
	if dispatches == 0 {
		dispatches = 1
	}
	perRequest := float64(lr.dispatchesPR) / dispatches / p / 1e3 // Σ-over-ranks ns → µs per request
	latUs := lr.meanLatency * 1e6
	out := map[string]metric{
		"latency_us":                    {latUs, "us"},
		"steps_per_dispatch":            {barriers / dispatches, "count"},
		"msgs_per_dispatch":             {float64(maxMsgs) / dispatches, "count"},
		"words_per_dispatch":            {float64(maxWords) / dispatches, "count"},
		"ternary_per_dispatch":          {float64(ternary) / dispatches, "count"},
		"batch_cols":                    {float64(lr.requests*lr.dispatchesPR) / dispatches, "count"},
		"allocs_per_request":            {float64(lr.allocs) / float64(lr.requests), "count"},
		"checkpoint_words_per_dispatch": {float64(lr.ckWords) / dispatches, "count"},
	}
	host := latUs
	for l, name := range layerNames {
		v := float64(ns[l]) * perRequest
		out[name] = metric{v, "us"}
		host -= v
	}
	out["host_us"] = metric{host, "us"}
	return out
}
