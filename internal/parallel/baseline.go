package parallel

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// RunRowBaseline executes the natural 1D row-partition parallel STTSV on
// the simulator: processor p owns a contiguous range of leading indices i,
// stores the packed lower-tetrahedron rows a_ijk (i in range, i >= j >= k),
// and owns the matching ranges of x and y.
//
// Because an element a_ijk contributes to y_i, y_j and y_k, every
// processor needs the full input vector (an all-gather, ≈ n words
// received) and produces partial results across the whole output (a
// reduce-scatter, ≈ n words sent): Θ(n) communication per processor
// independent of P. This is the baseline Algorithm 5's Θ(n/P^{1/3})
// improves upon (experiment E6). cfg configures the machine (fault
// transport, watchdog, observer); its zero value is the plain simulator.
func RunRowBaseline(a *tensor.Symmetric, x []float64, p int, cfg machine.RunConfig) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("parallel: row baseline requires a tensor")
	}
	n := a.N
	if len(x) != n {
		return nil, fmt.Errorf("parallel: tensor dimension %d, vector length %d", n, len(x))
	}
	if p < 1 || p > n {
		return nil, fmt.Errorf("parallel: row baseline needs 1 <= P <= n, got P=%d n=%d", p, n)
	}

	// Contiguous row ranges, as even as possible.
	bounds := make([]int, p+1)
	for r := 0; r <= p; r++ {
		bounds[r] = r * n / p
	}

	finalY := make([][]float64, p)
	pr := newPhaseRecorder(p, nil, "all-gather", "local", "reduce-scatter")

	report, err := machine.RunWith(p, cfg, func(c *machine.Comm) {
		me := c.Rank()
		lo, hi := bounds[me], bounds[me+1]

		// All-gather x: every rank contributes its owned range.
		var pieces [][]float64
		pr.comm(c, "all-gather", func() { pieces = collective.AllGatherV(c, 1, x[lo:hi]) })
		xs := make([]float64, n)
		pos := 0
		for _, piece := range pieces {
			pos += copy(xs[pos:], piece)
		}

		// Local compute over owned packed rows (the Algorithm 4 update
		// rules restricted to leading index i in [lo, hi)).
		partial := make([]float64, n)
		pr.local(c, "local", func() int64 {
			var count int64
			for i := lo; i < hi; i++ {
				xi := xs[i]
				for j := 0; j < i; j++ {
					xj := xs[j]
					for k := 0; k < j; k++ {
						v := a.At(i, j, k)
						xk := xs[k]
						partial[i] += 2 * v * xj * xk
						partial[j] += 2 * v * xi * xk
						partial[k] += 2 * v * xi * xj
					}
					count += 3 * int64(j)
					v := a.At(i, j, j)
					partial[i] += v * xj * xj
					partial[j] += 2 * v * xi * xj
					count += 2
				}
				for k := 0; k < i; k++ {
					v := a.At(i, i, k)
					partial[i] += 2 * v * xi * xs[k]
					partial[k] += v * xi * xi
				}
				count += 2 * int64(i)
				partial[i] += a.At(i, i, i) * xi * xi
				count++
			}
			return count
		})

		// Reduce-scatter the partials to the row owners.
		contrib := make([][]float64, p)
		for r := 0; r < p; r++ {
			contrib[r] = partial[bounds[r]:bounds[r+1]]
		}
		pr.comm(c, "reduce-scatter", func() { finalY[me] = collective.ReduceScatterSum(c, 2, contrib) })
	})
	if err != nil {
		return nil, err
	}
	pr.commit()

	y := make([]float64, n)
	for r := 0; r < p; r++ {
		copy(y[bounds[r]:bounds[r+1]], finalY[r])
	}
	pr.meter("all-gather").Steps = p - 1
	pr.meter("reduce-scatter").Steps = p - 1
	return &Result{
		Y:       y,
		Report:  report,
		Phases:  pr.meters.rows,
		Ternary: pr.meter("local").Ternary,
		Steps:   2 * (p - 1),
	}, nil
}

// RunSequenceBaseline executes the two-step "sequence approach" discussed
// in §8: first M = A ×₃ x as a parallel matricized product, then
// y = M·x. Processor p owns the dense (non-symmetric) slab of rows
// A[i, :, :] for its contiguous i-range plus the matching ranges of x and
// y; it all-gathers x (the only communication, ≈ n words per processor),
// forms its slab of M locally and multiplies.
//
// The trade-off the paper describes: ≈ 2n³ elementary operations (no
// symmetry reuse — twice Algorithm 5's work) and Ω(n) bandwidth when
// P <= n, versus Algorithm 5's n³ operations and Θ(n/P^{1/3}) words.
// cfg configures the machine as for RunRowBaseline.
func RunSequenceBaseline(a *tensor.Symmetric, x []float64, p int, cfg machine.RunConfig) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("parallel: sequence baseline requires a tensor")
	}
	n := a.N
	if len(x) != n {
		return nil, fmt.Errorf("parallel: tensor dimension %d, vector length %d", n, len(x))
	}
	if p < 1 || p > n {
		return nil, fmt.Errorf("parallel: sequence baseline needs 1 <= P <= n, got P=%d n=%d", p, n)
	}
	bounds := make([]int, p+1)
	for r := 0; r <= p; r++ {
		bounds[r] = r * n / p
	}

	finalY := make([][]float64, p)
	pr := newPhaseRecorder(p, nil, "all-gather", "local")
	report, err := machine.RunWith(p, cfg, func(c *machine.Comm) {
		me := c.Rank()
		lo, hi := bounds[me], bounds[me+1]

		// All-gather x — the only communication of the approach.
		var pieces [][]float64
		pr.comm(c, "all-gather", func() { pieces = collective.AllGatherV(c, 1, x[lo:hi]) })
		xs := make([]float64, n)
		pos := 0
		for _, piece := range pieces {
			pos += copy(xs[pos:], piece)
		}

		// M[i, j] = Σ_k a_ijk x_k for owned rows, then y_i = Σ_j M[i,j] x_j.
		y := make([]float64, hi-lo)
		pr.local(c, "local", func() int64 {
			mrow := make([]float64, n)
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					s := 0.0
					for k := 0; k < n; k++ {
						s += a.At(i, j, k) * xs[k]
					}
					mrow[j] = s
				}
				acc := 0.0
				for j := 0; j < n; j++ {
					acc += mrow[j] * xs[j]
				}
				y[i-lo] = acc
			}
			// The dense two-step product performs ~2n³/P multiply pairs per
			// rank; report the ternary-equivalent a·x·x count for the slab.
			return int64(hi-lo) * int64(n) * int64(n)
		})
		finalY[me] = y
	})
	if err != nil {
		return nil, err
	}
	pr.commit()

	y := make([]float64, n)
	for r := 0; r < p; r++ {
		copy(y[bounds[r]:bounds[r+1]], finalY[r])
	}
	pr.meter("all-gather").Steps = p - 1
	return &Result{
		Y:       y,
		Report:  report,
		Phases:  pr.meters.rows,
		Ternary: pr.meter("local").Ternary,
		Steps:   p - 1,
	}, nil
}
