package parallel

import (
	"repro/internal/la"
	"repro/internal/tensor"
)

// RunMTTKRP executes the symmetric MTTKRP Y_iℓ = Σ_jk a_ijk·X_jℓ·X_kℓ on
// the simulated machine — the paper's §8 generalization target. The same
// tetrahedral partition, vector distribution and communication schedule as
// Algorithm 5 are reused with messages carrying all r factor columns at
// once, so the per-processor bandwidth is exactly r times the single-
// vector cost while the latency (message count) stays that of a single
// STTSV — the amortization that makes the blocked layout attractive for
// CP-decomposition workloads.
//
// The factor matrix may be nil for pure communication measurements
// (rank r zero columns).
//
// RunMTTKRP is the one-shot form of Session.MTTKRP: the batched product is
// a multi-column application of the session engine.
func RunMTTKRP(a *tensor.Symmetric, x *la.Matrix, r int, opts Options) (*la.Matrix, *Result, error) {
	if x != nil {
		r = x.Cols
	}
	if opts.MaxCols < r {
		opts.MaxCols = r
	}
	s, err := OpenSession(a, opts)
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	return s.MTTKRP(x, r)
}
