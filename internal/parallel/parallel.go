// Package parallel implements the communication-optimal parallel STTSV
// computation of §7 (Algorithm 5) on the simulated α-β-γ machine, plus the
// baselines it is compared against.
//
// Algorithm 5 in outline, per processor p:
//
//  1. Gather: p owns a 1/|Q_i| chunk of row block x[i] for each i ∈ R_p;
//     it exchanges chunks with the other processors of Q_i until it holds
//     the q+1 full row blocks x[R_p].
//  2. Local compute: p applies its extended tetrahedral block set
//     (TB₃(R_p) ∪ N_p ∪ D_p) to x[R_p], producing partial results for the
//     full row blocks y[R_p].
//  3. Reduce-scatter: the partial y chunks are exchanged over the same
//     pattern and summed, leaving p with its final chunk of y[i] for each
//     i ∈ R_p.
//
// Two wirings of the two communication phases are provided. Each is only
// a layout (layout.go): a sequence of pairwise steps that one exchange
// loop runs for either wiring.
//
//   - WiringP2P: the direct point-to-point schedule of §7.2.2 (package
//     schedule), whose measured bandwidth matches the Theorem 5.2 lower
//     bound's leading term exactly;
//   - WiringAllToAll: the fixed-width All-to-All collectives of the
//     pseudocode (lines 10–21 and 38–50), laid out as the P−1 rounds of
//     the pairwise exchange with every message padded to 2·maxChunk words
//     per column, which cost twice the leading term (§7.2.2,
//     "Communication cost of our algorithm with All-to-All collectives").
//
// RunRowBaseline implements the natural 1D row partition (all-gather x,
// reduce-scatter y): Θ(n) words per processor versus Θ(n/P^{1/3}) for
// Algorithm 5.
package parallel

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// Wiring selects how the two vector exchanges are realized.
type Wiring int

const (
	// WiringP2P uses the direct point-to-point schedule (communication
	// optimal, q³/2+3q²/2−1 steps for the spherical family).
	WiringP2P Wiring = iota
	// WiringAllToAll uses fixed-width All-to-All collectives (P−1 steps,
	// 2× the optimal bandwidth) as written in Algorithm 5's pseudocode:
	// in round r rank p sends to p+r mod P, every pair exchanging
	// 2·maxChunk words per column.
	WiringAllToAll
)

func (w Wiring) String() string {
	switch w {
	case WiringP2P:
		return "p2p"
	case WiringAllToAll:
		return "all-to-all"
	}
	return fmt.Sprintf("Wiring(%d)", int(w))
}

// Options configures a parallel STTSV run.
type Options struct {
	// Part is the tetrahedral block partition (determines P and m). The
	// point-to-point schedule of WiringP2P is built from it.
	Part *partition.Tetrahedral
	// B is the block edge length; the padded dimension is m·B, which must
	// be at least len(x).
	B int
	// Wiring selects the communication realization.
	Wiring Wiring
	// Machine configures the simulated run: stall watchdog, transport
	// factory (fault injection / reliable transport — see package
	// fault), observer, and backend. The zero value is the perfect
	// direct-wire machine with no watchdog.
	Machine machine.RunConfig
	// Blocks optionally supplies pre-packed per-rank block sets
	// (PackRankBlocks), so repeated applications of the same tensor skip
	// re-extraction. Must match the partition, block edge and tensor of
	// the run.
	Blocks *RankBlocks
	// Sparse selects the sparse fast path: the session's local compute
	// runs the packed sparse block kernels over these per-rank block sets
	// (PackSparseRankBlocks) and never materializes a dense block. The
	// tensor argument must be nil and Blocks unset; the communication
	// structure, meters, checkpointing and recovery are identical to a
	// dense session, and the output bits match a dense scalar-kernel
	// session on the materialized tensor.
	Sparse *SparseRankBlocks
	// ScalarKernel makes a dense session use the scalar reference kernel
	// (sttsv.BlockContributeScalar) instead of the tiled kernels.
	// Slower, but its association order is the one the sparse kernels
	// reproduce — a dense scalar session is the bit-exact conformance
	// oracle for a sparse session.
	ScalarKernel bool
	// MaxCols presizes a Session's arenas and message buffers for batched
	// applications of up to this many columns (ApplyBatch / MTTKRP).
	// Defaults to 1; the session grows on demand when exceeded.
	MaxCols int
	// Recovery, when non-nil, arms the session's crash-recovery
	// supervisor: injected rank crashes (and genuine panics) are caught,
	// the machine is relaunched one wire epoch later, every rank rolls
	// back to the last dispatch-boundary checkpoint, and the operation
	// replays under a bounded budget (see RecoveryOptions). The zero
	// RecoveryOptions value selects all defaults. Nil (the
	// default) keeps the fail-fast semantics: any crash kills the run.
	Recovery *RecoveryOptions
}

// Result reports the outcome of a simulated parallel STTSV.
type Result struct {
	// Y is the computed output vector (length n).
	Y []float64
	// Report carries the per-rank communication meters for the whole run.
	Report *machine.Report
	// Phases carries one labeled meter per algorithm phase in execution
	// order — "gather", "local", "reduce-scatter" for Algorithm 5 runs;
	// the baselines use collective labels ("all-gather", …). Each meter
	// splits the run's traffic, compute and step count by phase; the sums
	// over phases equal the Report's logical meters. (This replaces the
	// former GatherSentWords/ScatterSentWords pair.)
	Phases []PhaseMeter
	// Ternary counts ternary multiplications per rank.
	Ternary []int64
	// Steps is the number of communication steps per exchange phase
	// (schedule length for WiringP2P, P−1 for WiringAllToAll).
	Steps int
}

// Phase returns the meter with the given label, or nil if the run had no
// such phase.
func (r *Result) Phase(label string) *PhaseMeter {
	for i := range r.Phases {
		if r.Phases[i].Label == label {
			return &r.Phases[i]
		}
	}
	return nil
}

// Run executes Algorithm 5 for y = A ×₂ x ×₃ x. The tensor may be nil, in
// which case every rank packs full-size, zero-valued blocks that the
// kernel still runs over (pure communication measurements without
// materializing A, though not without its blocks' memory and compute).
//
// Run is a one-shot convenience over Session: it opens a session, applies
// x once, and closes. Callers applying the same configuration repeatedly
// should hold a Session open instead — the machine launch, plan
// precomputation, and all buffers are then paid once rather than per
// application. The results are identical either way, bit for bit.
func Run(a *tensor.Symmetric, x []float64, opts Options) (*Result, error) {
	s, err := OpenSession(a, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Apply(x)
}
