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
// callers (e.g. all ranks of the simulated machine sharing one).
type Executor struct {
	workers int
	scalar  bool
}

// NewExecutor returns an executor with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// NewScalarExecutor returns an executor that applies blocks with the
// scalar reference kernel (BlockContributeScalar) instead of the tiled
// kernels. With one worker its output is bit-for-bit the seed sequential
// behavior — the exact oracle the sparse block kernels are conformance-
// tested against (they reproduce the scalar association order over the
// stored nonzeros).
func NewScalarExecutor(workers int) *Executor {
	e := NewExecutor(workers)
	e.scalar = true
	return e
}

// Workers returns the configured worker count.
func (e *Executor) Workers() int { return e.workers }

// contribute applies one block with the executor's configured kernel.
func (e *Executor) contribute(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64, stats *Stats) {
	if e.scalar {
		BlockContributeScalar(blk, xI, xJ, xK, yI, yJ, yK, stats)
		return
	}
	BlockContribute(blk, xI, xJ, xK, yI, yJ, yK, stats)
}

// Contribute applies every block to the input row blocks and accumulates
// into the output row blocks: xRow(i) and yRow(i) return the length-b row
// block of row-block index i. xRow must be safe for concurrent calls (it
// is invoked from worker goroutines); yRow is only called after all
// workers have finished. With one worker (or one block) the blocks are
// applied directly in input order — identical to the plain sequential
// loop.
//
// The per-worker accumulators come from sc, so repeated applications over
// the same blocks allocate nothing after the first; a nil sc allocates
// fresh accumulators per call. The output bits are identical either way:
// row tables start all-nil and rows are zeroed on first touch, so the
// deterministic tree reduction sees exactly the state it would with fresh
// buffers.
func (e *Executor) Contribute(sc *Scratch, blocks []*tensor.Block, b int, xRow, yRow func(int) []float64, stats *Stats) {
	if len(blocks) == 0 {
		return
	}
	w := e.workers
	if w > len(blocks) {
		w = len(blocks)
	}
	if w <= 1 {
		for _, blk := range blocks {
			e.contribute(blk,
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
	var workers []workerScratch
	if sc != nil {
		workers = sc.acquire(w, maxRow)
	} else {
		workers = make([]workerScratch, w)
		for wi := range workers {
			workers[wi].rows = make([][]float64, maxRow+1)
		}
	}
	acc := make([][][]float64, w) // acc[worker][row block] — private accumulators
	counts := make([]int64, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			ws := &workers[wi]
			row := func(i int) []float64 { return ws.row(i, b) }
			var st Stats
			for bi := wi; bi < len(blocks); bi += w {
				blk := blocks[bi]
				e.contribute(blk,
					xRow(blk.I), xRow(blk.J), xRow(blk.K),
					row(blk.I), row(blk.J), row(blk.K), &st)
			}
			acc[wi] = ws.rows
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

// ContributeCols applies the block list to cols independent right-hand
// sides: xRow(i, l) and yRow(i, l) address the length-b row block of row i
// for column l. Columns are processed one at a time through Contribute,
// so column l's output bits are identical to a single-column Contribute
// over that column — batching changes the communication schedule (see
// parallel.Session.ApplyBatch), never the arithmetic.
func (e *Executor) ContributeCols(sc *Scratch, blocks []*tensor.Block, b, cols int, xRow, yRow func(i, l int) []float64, stats *Stats) {
	for l := 0; l < cols; l++ {
		l := l
		e.Contribute(sc, blocks, b,
			func(i int) []float64 { return xRow(i, l) },
			func(i int) []float64 { return yRow(i, l) }, stats)
	}
}
