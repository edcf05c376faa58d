package parallel

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// RankEngine is one rank's share of the distributed power method, packaged
// for a process that hosts exactly that rank over a real-network backend.
// It owns the rank's packed block set, arenas and message buffers, and
// drives iterations through the same sessionRank.powerIterate and dense
// rank step the in-process Session dispatches — so a multi-process TCP
// run computes bit-for-bit the arithmetic of the simulated reference.
//
// Unlike a Session, a RankEngine has no host: the embedding runtime (see
// internal/cluster) supplies the machine.Comm of a distributed machine
// whose only local rank is this one, calls Iterate once per dispatched
// round, and persists a Checkpoint record after each so a killed process
// can Resume from its last durable boundary.
type RankEngine struct {
	rank   int
	padded int
	n      int

	step rankStep
	rk   *sessionRank
	pr   *phaseRecorder // never read: a rank process reports no phases
}

// NewRankEngine validates the configuration and packs only this rank's
// tetrahedral block set (≈ 1/P of the tensor — the point of a distributed
// run is that no process materializes everything).
func NewRankEngine(a *tensor.Symmetric, opts Options, rank int) (*RankEngine, error) {
	part := opts.Part
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	if rank < 0 || rank >= part.P {
		return nil, fmt.Errorf("parallel: rank %d of %d", rank, part.P)
	}
	b := opts.B
	if b < 1 {
		return nil, fmt.Errorf("parallel: block edge %d", b)
	}
	if a == nil {
		return nil, fmt.Errorf("parallel: power method requires a tensor")
	}
	padded := part.M * b
	if a.N > padded {
		return nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d", a.N, padded)
	}
	lay, err := buildLayout(part, opts.Wiring, b)
	if err != nil {
		return nil, err
	}

	blocks := &RankBlocks{P: part.P, B: b, N: a.N, per: make([]*tensor.BlockPacked, part.P)}
	blocks.per[rank] = tensor.PackBlocks(a, blockCoords(part, rank), b)
	step := tetraStep(&denseOp{blocks: blocks, scalar: opts.ScalarKernel})
	rk := &sessionRank{lay: &lay.perRank[rank], b: b}
	rk.grow(1)
	return &RankEngine{
		rank:   rank,
		padded: padded,
		n:      a.N,
		step:   step,
		rk:     rk,
		pr:     newPhaseRecorder(part.P, nil, step.pmLabels...),
	}, nil
}

// SeedPower initializes the rank's iterate chunks from the deterministic
// unit start vector of PowerMethod (see seedPower), so the distributed
// seed is bit-identical to the simulated one.
func (e *RankEngine) SeedPower(seed int64) {
	seedPower([]*sessionRank{e.rk}, e.n, e.padded, seed)
}

// Iterate runs one power-method round on the supplied communicator (whose
// machine must span the partition's P ranks with this engine's rank
// local). It returns the convergence flags every rank derives identically
// from the all-reduced scalars.
func (e *RankEngine) Iterate(c *machine.Comm, tol float64) (stop, converged, singular bool) {
	if tol <= 0 {
		tol = 1e-12
	}
	return e.rk.powerIterate(c, e.step, tol, e.pr)
}

// Lambda returns the current eigenvalue estimate.
func (e *RankEngine) Lambda() float64 { return e.rk.pmLambda }

// Checkpoint returns the rank's durable record at boundary iter (after
// iter rounds): the bytes a recovering Session keeps for the rank at a
// power-iteration boundary (see sessionRank.encodeRecord).
func (e *RankEngine) Checkpoint(iter int) []byte {
	return e.rk.encodeRecord(nil, e.rank, iter)
}

// Resume restores the rank to boundary iter from a record Checkpoint wrote
// on an engine of the same configuration, verified against the record's
// page fingerprints exactly as a Session rollback is; a mismatch is a
// *RestoreMismatchError.
func (e *RankEngine) Resume(iter int, rec []byte) error {
	return e.rk.loadRecord(e.rank, iter, rec)
}

// OwnedWords returns the rank's owned spans of the iterate, concatenated
// in (local row, chunk) order — the payload a rank ships to the
// coordinator for final assembly. The returned slice is freshly allocated.
func (e *RankEngine) OwnedWords() []float64 {
	rk := e.rk
	var out []float64
	for k := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		out = append(out, rk.chunk[k*rk.b+lo:k*rk.b+hi]...)
	}
	return out
}

// AssemblePower reassembles the global iterate from every rank's
// OwnedWords payload, inverting the span order exactly. owned[p] must come
// from rank p of the same partition and block edge; the result has length
// n.
func AssemblePower(part *partition.Tetrahedral, b, n int, owned [][]float64) ([]float64, error) {
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	if len(owned) != part.P {
		return nil, fmt.Errorf("parallel: %d owned payloads for %d ranks", len(owned), part.P)
	}
	padded := part.M * b
	if n > padded {
		return nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d", n, padded)
	}
	x := make([]float64, padded)
	for p := 0; p < part.P; p++ {
		off := 0
		for _, row := range part.Rp[p] {
			lo, hi, ok := part.OwnedRange(p, row, b)
			if !ok {
				return nil, fmt.Errorf("parallel: rank %d has no chunk of its row %d", p, row)
			}
			w := hi - lo
			if off+w > len(owned[p]) {
				return nil, fmt.Errorf("parallel: rank %d payload %d words, needs at least %d", p, len(owned[p]), off+w)
			}
			copy(x[row*b+lo:row*b+hi], owned[p][off:off+w])
			off += w
		}
		if off != len(owned[p]) {
			return nil, fmt.Errorf("parallel: rank %d payload %d words, expected %d", p, len(owned[p]), off)
		}
	}
	return x[:n], nil
}
