package parallel

import (
	"repro/internal/machine"
	"repro/internal/tensor"
)

// PowerOptions configures the distributed higher-order power method.
type PowerOptions struct {
	// MaxIter bounds the iteration count (default 200).
	MaxIter int
	// Tol is the eigenvalue convergence tolerance (default 1e-12).
	Tol float64
	// Seed determines the (deterministic) starting vector.
	Seed int64
}

// EigenResult reports a distributed power-method run.
type EigenResult struct {
	// Lambda is the Z-eigenvalue estimate.
	Lambda float64
	// X is the unit eigenvector estimate (assembled on the host at the
	// end).
	X []float64
	// Iterations is the number of STTSV rounds executed. A run stopped by
	// the MaxIter cap reports exactly MaxIter.
	Iterations int
	// Converged reports whether the eigenvalue stabilized within Tol. It
	// stays false for the MaxIter cap exit and for the singular exit.
	Converged bool
	// Singular reports the degenerate exit: ‖y‖ vanished, so the iterate
	// could not be renormalized and the method stopped without
	// converging.
	Singular bool
	// Report carries the communication meters for the whole run, all
	// iterations included.
	Report *machine.Report
	// Phases carries the per-phase meters summed over all iterations:
	// "gather", "local", "reduce-scatter", "all-reduce". Steps on the two
	// exchange meters is the schedule length scaled by the iterations
	// executed.
	Phases []PhaseMeter
}

// Phase returns the meter with the given label, or nil.
func (r *EigenResult) Phase(label string) *PhaseMeter {
	for i := range r.Phases {
		if r.Phases[i].Label == label {
			return &r.Phases[i]
		}
	}
	return nil
}

// RunPowerMethod executes Algorithm 1 entirely on the simulated machine:
// the iterate x lives distributed in the tetrahedral-partition chunk
// layout for the whole run — each iteration performs the two Algorithm 5
// exchanges plus one scalar all-reduce (for λ and the normalization), and
// no vector ever visits a single processor. This is the composition the
// paper's introduction motivates: the per-iteration bandwidth stays at the
// lower bound's leading term.
//
// RunPowerMethod is the one-shot form of Session.PowerMethod: it opens a
// session, runs the method as a single resident operation, and closes.
func RunPowerMethod(a *tensor.Symmetric, opts Options, po PowerOptions) (*EigenResult, error) {
	s, err := OpenSession(a, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.PowerMethod(po)
}
