package sttsv

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// Property-based tests (testing/quick) over the core invariants of the
// public API: algebraic identities of the STTSV operator, partition chunk
// coverage for arbitrary block edges, and packed-storage round trips.

// TestPropertySTTSVBilinearInTensor: y is linear in A for fixed x, across
// random tensor pairs and scalars.
func TestPropertySTTSVBilinearInTensor(t *testing.T) {
	n := 9
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) + 0.5)
	}
	f := func(seedA, seedB int64, cRaw uint8) bool {
		c := float64(cRaw%10) - 5
		a := RandomTensor(n, seedA)
		bb := RandomTensor(n, seedB)
		combo := NewTensor(n)
		for i := range combo.Data {
			combo.Data[i] = a.Data[i] + c*bb.Data[i]
		}
		ya := Compute(a, x, nil)
		yb := Compute(bb, x, nil)
		yc := Compute(combo, x, nil)
		for i := range yc {
			if math.Abs(yc[i]-(ya[i]+c*yb[i])) > 1e-9*(1+math.Abs(yc[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertySTTSVQuadraticInVector: y(c·x) = c²·y(x) for random scales.
func TestPropertySTTSVQuadraticInVector(t *testing.T) {
	n := 8
	a := RandomTensor(n, 99)
	f := func(seedX int64, cRaw int8) bool {
		c := float64(cRaw) / 16
		x := make([]float64, n)
		r := RandomTensor(n, seedX) // reuse deterministic generator for x entries
		copy(x, r.Data[:n])
		cx := make([]float64, n)
		for i := range x {
			cx[i] = c * x[i]
		}
		y := Compute(a, x, nil)
		ycx := Compute(a, cx, nil)
		for i := range y {
			if math.Abs(ycx[i]-c*c*y[i]) > 1e-9*(1+math.Abs(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLambdaIsSymmetricTrilinearForm: λ(x) = A×₁x×₂x×₃x equals
// the explicit trilinear sum on random inputs.
func TestPropertyLambdaIsSymmetricTrilinearForm(t *testing.T) {
	n := 6
	a := RandomTensor(n, 7)
	d := a.Dense()
	f := func(seed int64) bool {
		x := make([]float64, n)
		r := RandomTensor(n, seed)
		copy(x, r.Data[:n])
		want := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					want += d.At(i, j, k) * x[i] * x[j] * x[k]
				}
			}
		}
		return math.Abs(Lambda(a, x)-want) < 1e-8*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyChunksPartitionRowBlocks: for every admissible machine and
// arbitrary block edge, the per-processor chunks of each row block tile
// [0, b) exactly.
func TestPropertyChunksPartitionRowBlocks(t *testing.T) {
	parts := make([]*Partition, 0, 2)
	for _, q := range []int{2, 3} {
		p, err := NewPartition(q)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	f := func(bRaw uint8, which bool) bool {
		b := int(bRaw)%40 + 1
		part := parts[0]
		if which {
			part = parts[1]
		}
		for i := 0; i < part.M; i++ {
			pos := 0
			for _, ch := range part.RowBlockChunks(i, b) {
				if ch.Lo != pos || ch.Hi < ch.Lo {
					return false
				}
				pos = ch.Hi
			}
			if pos != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStorageConservation: for arbitrary block edges, the
// per-processor packed block storage of the partition sums to exactly the
// packed size of the padded tensor.
func TestPropertyStorageConservation(t *testing.T) {
	part, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(bRaw uint8) bool {
		b := int(bRaw)%12 + 1
		total := 0
		for p := 0; p < part.P; p++ {
			total += part.StorageWords(p, b)
		}
		n := part.M * b
		return total == n*(n+1)*(n+2)/6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertySparseDenseAgree: sparsify-then-apply agrees with the dense
// kernel for random sparsity patterns.
func TestPropertySparseDenseAgree(t *testing.T) {
	n := 7
	f := func(seed int64, keepRaw uint8) bool {
		a := RandomTensor(n, seed)
		thresh := float64(keepRaw) / 256 // drop entries below a random threshold
		for i := range a.Data {
			if math.Abs(a.Data[i]) < thresh {
				a.Data[i] = 0
			}
		}
		sp := sparse.FromPacked(a, 0)
		x := make([]float64, n)
		r := RandomTensor(n, seed+1)
		copy(x, r.Data[:n])
		ys := sp.Apply(x, nil)
		yd := Compute(a, x, nil)
		for i := range ys {
			if math.Abs(ys[i]-yd[i]) > 1e-10*(1+math.Abs(yd[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMTTKRPColumnsAreSTTSV: every column of the fused MTTKRP is
// the STTSV of that column, for random factors.
func TestPropertyMTTKRPColumnsAreSTTSV(t *testing.T) {
	n, r := 8, 3
	a := RandomTensor(n, 55)
	f := func(seed int64) bool {
		cols := make([][]float64, r)
		for l := range cols {
			c := make([]float64, n)
			rt := RandomTensor(n, seed+int64(l))
			copy(c, rt.Data[:n])
			cols[l] = c
		}
		x := FactorsFromColumns(cols)
		y := MTTKRP(a, x, nil)
		for l := 0; l < r; l++ {
			want := Compute(a, cols[l], nil)
			for i := 0; i < n; i++ {
				if math.Abs(y.At(i, l)-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFootprintBound: for random subsets of off-diagonal blocks,
// the footprint respects the Lemma 4.2 bound f(f−1)(f−2)/6 >= |blocks|.
func TestPropertyFootprintBound(t *testing.T) {
	part, err := NewPartition(3)
	if err != nil {
		t.Fatal(err)
	}
	rr := partition.RoundRobinAssignment(part.M, part.P)
	f := func(idx uint8) bool {
		blocks := rr[int(idx)%len(rr)]
		fp := partition.Footprint(blocks)
		return fp*(fp-1)*(fp-2)/6 >= len(blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
