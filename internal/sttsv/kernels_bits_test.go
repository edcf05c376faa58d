package sttsv

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// These tests pin the bits of the dispatched micro-kernels. On a CPU with
// AVX the dispatched kernels run the assembly over each row's multiple-of-
// four prefix and the Go loop over the tail; everywhere else they are the
// Go loops alone. Either way every output must equal, bit for bit, what
// the Go loops produce on their own.

// bitsEqual compares like the kernels promise to agree: finite values
// (signed zeros included) bit for bit, infinities by sign, and NaN only
// as a class, since a NaN's payload may follow operand order.
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelInput draws one operand: mostly normal values, with −0, +0 and,
// when special is set, ±Inf and NaN mixed in.
func kernelInput(rng *rand.Rand, special bool) float64 {
	switch r := rng.Intn(16); {
	case r == 0:
		return math.Copysign(0, -1)
	case r == 1:
		return 0
	case special && r == 2:
		return math.Inf(1 - 2*rng.Intn(2))
	case special && r == 3:
		return math.NaN()
	}
	return rng.NormFloat64()
}

func kernelVec(n int, rng *rand.Rand, special bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelInput(rng, special)
	}
	return v
}

func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s[%d]: dispatched %g (%#x), Go %g (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMicroKernelsMatchGo runs each dispatched micro-kernel against its Go
// loop on identical inputs, at every row length up to 37 (every tail
// length of a four-column pass, several times over) and at strides both
// equal to and longer than the row, with signed zeros throughout and,
// in the second round, infinities and NaNs as well.
func TestMicroKernelsMatchGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: the assembly kernels cannot run here")
	}
	rng := rand.New(rand.NewSource(81))
	for _, special := range []bool{false, true} {
		for l := 0; l <= 37; l++ {
			for _, stride := range []int{l, l + 3} {
				rows := kernelVec(7*stride+l, rng, special)
				xk := kernelVec(l, rng, special)
				yk := kernelVec(l, rng, special)
				var c8, s8 [8]float64
				for i := range c8 {
					c8[i] = kernelInput(rng, special)
					s8[i] = kernelInput(rng, special)
				}

				// Four rows.
				c4, s4 := (*[4]float64)(c8[:4]), *(*[4]float64)(s8[:4])
				yGo, sGo := append([]float64(nil), yk...), s4
				panel4(rows, stride, xk, yGo, c4, &sGo, false)
				yVec, sVec := append([]float64(nil), yk...), s4
				panel4(rows, stride, xk, yVec, c4, &sVec, true)
				checkBits(t, "panel4 yk", yVec, yGo)
				checkBits(t, "panel4 s", sVec[:], sGo[:])

				// Eight rows: the Go reference is two four-row panels
				// in a row.
				yGo, sGo8 := append([]float64(nil), yk...), s8
				panel4(rows, stride, xk, yGo, (*[4]float64)(c8[:4]), (*[4]float64)(sGo8[:4]), false)
				panel4(rows[4*stride:], stride, xk, yGo, (*[4]float64)(c8[4:]), (*[4]float64)(sGo8[4:]), false)
				yVec, sVec8 := append([]float64(nil), yk...), s8
				panel8(rows, stride, xk, yVec, &c8, &sVec8, true)
				checkBits(t, "panel8 yk", yVec, yGo)
				checkBits(t, "panel8 s", sVec8[:], sGo8[:])

				// One row.
				r := rows[:l]
				yGo = append([]float64(nil), yk...)
				want := row(r, xk, yGo, c8[0], false)
				yVec = append([]float64(nil), yk...)
				got := row(r, xk, yVec, c8[0], true)
				checkBits(t, "row yk", yVec, yGo)
				checkBits(t, "row s", []float64{got}, []float64{want})
			}
		}
	}
}

// digestEdges covers every tail of the eight-, four- and one-row passes
// and of the four-column prefix, plus the perfbench power edge (24) and a
// large edge (64).
var digestEdges = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 31, 33, 64}

// kernelDigests are FNV-64a digests of blockDigest's outputs, recorded
// from the Go tiled kernels before the assembly existed, in digestEdges
// order.
var kernelDigests = map[string][]uint64{
	"off-diagonal": {
		0x35dfc776dae08f19, 0x878845eb056118cc, 0x73ee6782243eea33, 0x09b53b2fc140045e,
		0xede1d91d495dad5e, 0xc6aec06c2fc539d5, 0xb946bd16349791c4, 0xae948f83ac7d73f5,
		0x7ac624d8cb701a2c, 0x0b6477545adf57d1, 0xcf7d6d3892d04342, 0xe8f9509beb33cad2,
		0xbea28190ea648d9b, 0x2c6cdbbc30997f8a, 0x2fbe359b71567e6d, 0x92ba91201f46d950,
	},
	"diag-pair-high": {
		0xaddae7bde32d2151, 0xe008c474abeeb408, 0x837cce7fa585d083, 0x940537264f71a97a,
		0xf8406b0d57555139, 0xa4be73dbf3a6a24f, 0xba9450ac721f1b56, 0xd2c037f04f99088c,
		0xe3d2a41f72569678, 0x6cd976075ef168b1, 0xaad86b829acfc4f4, 0x30e72fd6cd639dab,
		0xa61fc6debdc95af8, 0x44715fd033c0f023, 0x880b8bba52afed85, 0xd800f442b9cd9777,
	},
	"diag-pair-low": {
		0xf10e81157d145620, 0xd3864bd9a254aca7, 0xace9676b462d4e0f, 0x873cff1ed5e800f3,
		0x3810555409a1abb0, 0x9af60b224faa3056, 0xb4677cfa9fe5db38, 0xbc8fc0c27e1a4b66,
		0x8fbdbf31a0a20303, 0xcaaf492449a93837, 0xe977c79aa6ef9413, 0x82fc67e40464713f,
		0x39985c60f56ab6f0, 0x2bb1a559353b16eb, 0xfef92337c6f4d298, 0x749c28339c9bb34c,
	},
	"central": {
		0x84430dfa2f5e8dd3, 0x155d65f11cecdf5b, 0xf7a81259472f2132, 0x764c87327a3e6c6f,
		0xe9d664611e3dee43, 0x0daf75e0cd177ca5, 0xe8eb6c3c1b893237, 0x1fdeed701d456fcf,
		0xddf23f3e583a0ec5, 0x6343f2b18035629c, 0x8b91eee7615fc618, 0x675464582dc381b3,
		0x2a49b0da60d4ef22, 0x612b70afa0db4e19, 0x4fdeed6ecd097b31, 0x30b6e9ccb05a3099,
	},
}

// blockDigest runs BlockContribute on one seeded case — contract aliasing
// from rowsFor, nonzero initial accumulators — and hashes the output bits
// of yI, yJ and yK in turn (an aliased row block once per name).
func blockDigest(I, J, K, b int) uint64 {
	rng := rand.New(rand.NewSource(int64(1000*b + 100*I + 10*J + K)))
	blk := randBlock(I, J, K, b, rng)
	xI, xJ, xK := rowsFor(I, J, K, b, rng.NormFloat64)
	yI, yJ, yK := rowsFor(I, J, K, b, rng.NormFloat64)
	BlockContribute(blk, xI, xJ, xK, yI, yJ, yK, nil)
	h := fnv.New64a()
	var w [8]byte
	for _, y := range [][]float64{yI, yJ, yK} {
		for _, v := range y {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// TestBlockContributeDigests asserts the dispatched block kernels
// reproduce the recorded digests, so no restructuring of the Go side and
// no assembly path can move a bit unnoticed. It runs on amd64 only: on
// other architectures the compiler may fuse the Go loops' multiply-adds,
// which changes the bits legitimately.
func TestBlockContributeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded for amd64, where Go does not fuse multiply-adds (GOARCH=%s)", runtime.GOARCH)
	}
	for _, c := range kernelCases {
		want := kernelDigests[c.name]
		if len(want) != len(digestEdges) {
			t.Fatalf("%s: %d recorded digests for %d edges", c.name, len(want), len(digestEdges))
		}
		for i, b := range digestEdges {
			if got := blockDigest(c.I, c.J, c.K, b); got != want[i] {
				t.Errorf("%s b=%d: digest %#016x, recorded %#016x", c.name, b, got, want[i])
			}
		}
	}
}
