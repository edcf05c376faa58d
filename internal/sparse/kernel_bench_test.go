package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkBlockApply times the sparse block kernel on perfbench
// sparse's tensor (SkewedHypergraph(15000, 360000, 1, 1), packed at
// b = 1500: 220 blocks), one sub-benchmark per block kind and one over
// every block, and reports ns per stored nonzero. The hypergraph's
// nonzeros are strict triples in runs of mostly one element, so the
// numbers measure the kernel's run and group boundaries rather than
// its arithmetic.
func BenchmarkBlockApply(b *testing.B) {
	const edge = 1500
	sp, err := SkewedHypergraph(15000, 360000, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	pk, err := Pack(sp, edge)
	if err != nil {
		b.Fatal(err)
	}
	blocks := pk.Select(allCoords(pk.M))
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, pk.M*edge)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, len(x))
	bench := func(name string, keep func(*Block) bool) {
		var sel []*Block
		nnz := 0
		for _, blk := range blocks {
			if keep(blk) {
				sel = append(sel, blk)
				nnz += blk.NNZ()
			}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Contribute(sel, edge, x, y, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/nnz")
		})
	}
	for _, kind := range []tensor.BlockKind{tensor.OffDiagonal, tensor.DiagPairHigh, tensor.DiagPairLow, tensor.Central} {
		bench(kind.String(), func(blk *Block) bool { return blk.Kind == kind })
	}
	bench("all", func(*Block) bool { return true })
}
