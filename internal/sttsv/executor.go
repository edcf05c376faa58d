package sttsv

import (
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Executor distributes block contributions over a fixed-size worker pool
// with bit-reproducible output. Blocks are dealt round-robin to workers in
// input order; each worker accumulates into private per-row buffers; the
// buffers are then merged by a fixed pairwise tree reduction and added to
// the caller's output rows. For a given block list and worker count the
// result bits therefore never depend on goroutine scheduling — only the
// worker count itself changes the summation grouping (documented alongside
// the tiled-kernel reassociation; equivalence to the sequential path holds
// to a few ulps).
//
// An Executor is stateless and safe for concurrent use by multiple
// callers.
type Executor struct {
	workers int
}

// NewExecutor returns an executor with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Workers returns the configured worker count.
func (e *Executor) Workers() int { return e.workers }

// Contribute applies every block to the input row blocks and accumulates
// into the output row blocks: xRow(i) and yRow(i) return the length-b row
// block of row-block index i. xRow must be safe for concurrent calls (it
// is invoked from worker goroutines); yRow is only called after all
// workers have finished. With one worker (or one block) the blocks are
// applied directly in input order — identical to the plain sequential
// loop.
func (e *Executor) Contribute(blocks []*tensor.Block, b int, xRow, yRow func(int) []float64, stats *Stats) {
	if len(blocks) == 0 {
		return
	}
	w := e.workers
	if w > len(blocks) {
		w = len(blocks)
	}
	if w <= 1 {
		for _, blk := range blocks {
			BlockContribute(blk,
				xRow(blk.I), xRow(blk.J), xRow(blk.K),
				yRow(blk.I), yRow(blk.J), yRow(blk.K), stats)
		}
		return
	}

	maxRow := 0
	for _, blk := range blocks {
		if blk.I > maxRow { // I >= J >= K
			maxRow = blk.I
		}
	}
	acc := make([][][]float64, w) // acc[worker][row block] — private accumulators
	counts := make([]int64, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Rows no block touches stay nil: the tree reduction below
			// moves or skips nil rows.
			rows := make([][]float64, maxRow+1)
			row := func(i int) []float64 {
				if rows[i] == nil {
					rows[i] = make([]float64, b)
				}
				return rows[i]
			}
			var st Stats
			for bi := wi; bi < len(blocks); bi += w {
				blk := blocks[bi]
				BlockContribute(blk,
					xRow(blk.I), xRow(blk.J), xRow(blk.K),
					row(blk.I), row(blk.J), row(blk.K), &st)
			}
			acc[wi] = rows
			counts[wi] = st.TernaryMults
		}(wi)
	}
	wg.Wait()

	// Deterministic pairwise tree reduction into acc[0]: worker w absorbs
	// w+stride for stride 1, 2, 4, … — the grouping depends only on w.
	for stride := 1; stride < w; stride *= 2 {
		for lo := 0; lo+stride < w; lo += 2 * stride {
			dst, src := acc[lo], acc[lo+stride]
			for i := range src {
				if src[i] == nil {
					continue
				}
				if dst[i] == nil {
					dst[i] = src[i]
					continue
				}
				d, s := dst[i], src[i]
				for t := range d {
					d[t] += s[t]
				}
			}
		}
	}
	for i, buf := range acc[0] {
		if buf == nil {
			continue
		}
		dst := yRow(i)
		for t := range buf {
			dst[t] += buf[t]
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	stats.add(total)
}
