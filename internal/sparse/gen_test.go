package sparse

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// entryDigest is FNV-1a over each entry's (I, J, K) as little-endian
// int64 and V's bits, in stored order, so it does not depend on the
// width of Entry's coordinate fields.
func entryDigest(t *Tensor) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for _, e := range t.entries {
		binary.LittleEndian.PutUint64(buf[0:], uint64(int64(e.I)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(e.J)))
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(e.K)))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(e.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGeneratorDigests pins the entry sequences the generators return
// for the shapes and seeds that tests, benchmarks and perfbench use.
// The digests were recorded from the sorting generators (int
// coordinates, one sort.Slice of all entries); RandomHypergraph's
// merged emission must reproduce them entry for entry. Skew 0 marks a
// RandomHypergraph row. The (10⁶, 10⁷, 36) acceptance tensor of
// `sttsvbench -sparse` is too large for a unit test; its digest is
// 0xf061b85bd2ea72ca.
func TestGeneratorDigests(t *testing.T) {
	for _, c := range []struct {
		n, edges int
		skew     float64
		seed     int64
		nnz      int
		digest   uint64
	}{
		{25, 100, 0, 17, 100, 0xcd0c5f944fafa2c7},             // TestFacadeSparseSession
		{20, 60, 0, 21, 60, 0x58c58f1fbe837e99},               // TestFacadeFastPathPools
		{40, 400, 0, 1, 400, 0xd47c559adc386151},              // sttsvserve -workload hypergraph defaults
		{100000, 1000000, 0, 36, 1000000, 0x7d6f11d987527b21}, // the acceptance seed at a tenth of n
		{15000, 360000, 1, 1, 360000, 0xdc725d9f8cfffa74},     // BenchmarkPackSparseRankBlocks, BenchmarkBlockApply, perfbench sparse seed 1
		{15000, 360000, 1, 7, 360000, 0x3928ed1c86a80c8},      // perfbench sparse seed 7
		{80, 2560, 1.3, 35, 2560, 0xd8c6f77486fade5e},         // sttsvbench -sparse imbalance
		{80, 2560, 1.3, 19, 2560, 0x5bf7439e7143a2b0},         // TestFacadeWeightedPartition
		{60, 600, 1, 5, 600, 0x334a61634ad0142},               // TestBlockApplyBitwiseScalarOracle
		{80, 2560, 1.3, 99, 2560, 0x21d667cca003c31f},         // partition weighted tests, q=2
		{160, 5120, 1.3, 99, 5120, 0xfd6d5ebfa6627ce5},        // q=3
		{20, 640, 1.3, 99, 640, 0x20dcaf2cef84989},            // q=2, b=4
	} {
		var sp *Tensor
		var err error
		if c.skew == 0 {
			sp, err = RandomHypergraph(c.n, c.edges, c.seed)
		} else {
			sp, err = SkewedHypergraph(c.n, c.edges, c.skew, c.seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := entryDigest(sp); sp.NNZ() != c.nnz || got != c.digest {
			t.Errorf("n=%d edges=%d skew=%g seed=%d: nnz %d digest %#x, want %d %#x",
				c.n, c.edges, c.skew, c.seed, sp.NNZ(), got, c.nnz, c.digest)
		}
	}
}

// TestRandomHypergraphMerged: the merged emission is sorted and unique,
// for edge counts that truncate the last family and for dimensions
// where many families start on one row.
func TestRandomHypergraphMerged(t *testing.T) {
	for _, c := range []struct{ n, edges int }{{3, 1}, {5, 0}, {7, 12}, {50, 900}, {300, 3001}} {
		for seed := int64(0); seed < 5; seed++ {
			sp, err := RandomHypergraph(c.n, c.edges, seed)
			if err != nil {
				t.Fatal(err)
			}
			if sp.NNZ() != c.edges {
				t.Fatalf("n=%d edges=%d seed=%d: %d entries", c.n, c.edges, seed, sp.NNZ())
			}
			for x, e := range sp.entries {
				if !(e.I > e.J && e.J > e.K && e.K >= 0 && int(e.I) < c.n) {
					t.Fatalf("n=%d seed=%d: entry %d = %+v is not a strict triple in range", c.n, seed, x, e)
				}
				if x > 0 {
					p := sp.entries[x-1]
					if p.I > e.I || p.I == e.I && (p.J > e.J || p.J == e.J && p.K >= e.K) {
						t.Fatalf("n=%d seed=%d: entries %d, %d = %+v, %+v out of (I, J, K) order", c.n, seed, x-1, x, p, e)
					}
				}
			}
		}
	}
}
