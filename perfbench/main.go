// Command perfbench is the repository's end-to-end benchmark. One run
// builds one workload's system from inputs generated from --seed, times its
// set-up, drives closed-loop requests for --seconds of wall time, checks
// every output against a sequential reference, and prints one JSON result
// as the last line of standard output.
//
// Usage (normally through run.py, which builds this binary first):
//
//	perfbench --workload apply --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (see
// endToEnd). With --trace 1 the same loop runs with the machine's event
// observer installed and the result carries the per-layer breakdown
// instead (layers.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/machine"
)

const (
	// A run sets its system up at least minSetupReps times, and more
	// until setupBudget is spent (at most maxSetupReps); setup_s is the
	// median, so one slow set-up (a scheduler hiccup) does not move it.
	minSetupReps = 5
	maxSetupReps = 41
	setupBudget  = time.Second
	// warmup is the untimed request loop before measuring: arenas grow,
	// payload pools fill and the Go heap reaches its steady size.
	warmup = 300 * time.Millisecond
	// slices is how many equal parts of the measured window the
	// end-to-end timings are computed over (see endToEnd).
	slices = 10
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one successful request: when it completed (since the window
// opened) and how long it took, in seconds.
type sample struct {
	done, lat float64
}

// errWrong marks a request whose output disagreed with the reference.
var errWrong = errors.New("output differs from the sequential reference")

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured wall time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer breakdown from the machine's event stream")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run prepares the workload's inputs and references, sets the system up
// several times (keeping the last), and measures it.
func run(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	pr, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	fmt.Printf("perfbench: workload %s (%s), %d ranks, %d clients, seed %d, %d CPU, GOMAXPROCS %d\n",
		w.name, pr.desc, pr.ranks, w.clients, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var tr *tracer
	var cfg machine.RunConfig
	minReps, maxReps := minSetupReps, maxSetupReps
	if traced {
		tr = newTracer(pr.ranks)
		cfg.Observer = tr.observe
		minReps, maxReps = 1, 1
	}
	var sys *system
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxReps && (i < minReps || spent < setupBudget); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close %s: %w", w.name, err)
			}
		}
		// Every set-up starts from a collected heap, so the garbage of
		// the previous one is not charged to it, and ends with the first
		// checked answer: a session starts its ranks asynchronously, so
		// stopping the clock when open returns would race their start-up,
		// and work deferred to the first request would escape set-up.
		runtime.GC()
		start := time.Now()
		sys, err = pr.open(cfg)
		if err == nil {
			var out []float64
			if out, err = sys.request(0); err == nil && !pr.check(0, out) {
				err = errWrong
			}
		}
		el := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		setups = append(setups, el.Seconds())
		spent += el
	}

	drive(w, pr, sys, warmup)
	if tr != nil {
		tr.reset()
	}
	ckWords := func() int64 {
		if sys.checkpointWords == nil {
			return 0
		}
		return sys.checkpointWords()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ck0 := ckWords()
	samples, attempted, failed := drive(w, pr, sys, window)
	ck1 := ckWords()
	runtime.ReadMemStats(&ms1)
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", w.name, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no request completed in %v", w.name, window)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if tr == nil {
		if res.Metrics, err = endToEnd(samples, window); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}
	var latSum float64
	for _, s := range samples {
		latSum += s.lat
	}
	res.Metrics = tr.metrics(layerRun{
		requests:     len(samples),
		meanLatency:  latSum / float64(len(samples)),
		dispatchesPR: w.dispatches,
		allocs:       ms1.Mallocs - ms0.Mallocs,
		ckWords:      ck1 - ck0,
	})
	return res, nil
}

// drive runs the workload's closed loop for the window: each client sends
// its next request only after the previous one returned. It returns one
// sample per successful request and the attempted and failed counts.
func drive(w *workload, pr *prepared, sys *system, window time.Duration) ([]sample, int, int) {
	type tally struct {
		samples           []sample
		attempted, failed int
	}
	tallies := make([]tally, w.clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for k := c; time.Now().Before(deadline); k += w.clients {
				t.attempted++
				t0 := time.Now()
				out, err := sys.request(k)
				t1 := time.Now()
				if err == nil && !pr.check(k, out) {
					err = errWrong
				}
				if err != nil {
					t.failed++
					fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", k, err)
					continue
				}
				t.samples = append(t.samples, sample{done: t1.Sub(start).Seconds(), lat: t1.Sub(t0).Seconds()})
			}
		}(c)
	}
	wg.Wait()
	var samples []sample
	attempted, failed := 0, 0
	for _, t := range tallies {
		samples = append(samples, t.samples...)
		attempted += t.attempted
		failed += t.failed
	}
	return samples, attempted, failed
}

// endToEnd computes the timing metrics over the window cut into slices
// equal parts by completion time. Each slice yields its median latency and
// its throughput; a run reports the lower quartile of the slice medians
// and the upper quartile of the slice throughputs — the level the system
// held for at least a quarter of the run. The machine this runs on is
// shared: a burst of load from elsewhere slows whatever slices it
// overlaps, and reading the quartile keeps a run that a burst partly
// overlapped comparable with one it missed.
func endToEnd(samples []sample, window time.Duration) (map[string]metric, error) {
	width := window.Seconds() / slices
	parts := make([][]sample, slices)
	for _, s := range samples {
		i := min(int(s.done/width), slices-1)
		parts[i] = append(parts[i], s)
	}
	var p50, rate []float64
	for _, part := range parts {
		if len(part) < 2 {
			continue
		}
		lat := make([]float64, len(part))
		first, last := part[0].done, part[0].done
		for i, s := range part {
			lat[i] = s.lat
			first, last = math.Min(first, s.done), math.Max(last, s.done)
		}
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.5))
		// Completions per second between the slice's first and last
		// completion: a measured rate, not a count over a fixed width.
		rate = append(rate, float64(len(part)-1)/(last-first))
	}
	if len(p50) == 0 {
		return nil, fmt.Errorf("too few requests in %v to time %d slices", window, slices)
	}
	sort.Float64s(p50)
	sort.Float64s(rate)
	return map[string]metric{
		"latency_ms":       {quantile(p50, 0.25) * 1e3, "ms"},
		"throughput_per_s": {quantile(rate, 0.75), "1/s"},
	}, nil
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
