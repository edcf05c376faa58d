// Package sttsv implements the sequential Symmetric-Tensor-Times-Same-
// Vector kernels of the paper: y = A ×₂ x ×₃ x, elementwise
// y_i = Σ_{j,k} a_ijk · x_j · x_k.
//
// Three full-tensor algorithms are provided:
//
//   - Naive: Algorithm 3, all n³ ternary multiplications on a dense cube,
//     ignoring symmetry; the correctness oracle and the baseline of
//     experiment E5.
//   - Packed: Algorithm 4, iterating only the lower tetrahedron and
//     applying each element to all of its permutations, for a total of
//     n²(n+1)/2 ternary multiplications — about half of Naive.
//   - Sequence: the two-step approach discussed in §8 (first M = A ×₃ x by
//     a matricized product, then y = M·x), which does ≈ 2n³ elementary
//     operations and serves as the arithmetic-cost comparison point.
//
// The block kernels (BlockContribute) compute the partial contributions of
// one tetrahedral-partition block; they are the local computation of
// Algorithm 5 (lines 24–36) and are shared by the blocked sequential
// driver and the parallel implementation.
package sttsv

import (
	"fmt"

	"repro/internal/tensor"
)

// Stats accumulates operation counts. A nil *Stats is accepted everywhere
// and disables counting.
type Stats struct {
	// TernaryMults counts ternary multiplications a_ijk·x_j·x_k as defined
	// in §3 (the unit of computational cost in the paper's analysis).
	TernaryMults int64
}

func (s *Stats) add(n int64) {
	if s != nil {
		s.TernaryMults += n
	}
}

// Naive computes y = A ×₂ x ×₃ x on a dense cube with Algorithm 3:
// all n³ ternary multiplications, no use of symmetry.
func Naive(a *tensor.Dense, x []float64, stats *Stats) []float64 {
	n := a.N
	if len(x) != n {
		panic(fmt.Sprintf("sttsv: vector length %d, tensor dimension %d", len(x), n))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Data[i*n*n : (i+1)*n*n]
		s := 0.0
		for j := 0; j < n; j++ {
			xj := x[j]
			t := 0.0
			base := j * n
			for k := 0; k < n; k++ {
				t += row[base+k] * x[k]
			}
			s += t * xj
		}
		y[i] = s
	}
	stats.add(int64(n) * int64(n) * int64(n))
	return y
}

// Packed computes y = A ×₂ x ×₃ x from packed lower-tetrahedron storage
// with Algorithm 4: each stored element contributes to every permutation
// class it represents, for n²(n+1)/2 ternary multiplications total.
func Packed(a *tensor.Symmetric, x []float64, stats *Stats) []float64 {
	n := a.N
	if len(x) != n {
		panic(fmt.Sprintf("sttsv: vector length %d, tensor dimension %d", len(x), n))
	}
	y := make([]float64, n)
	idx := 0
	var count int64
	for i := 0; i < n; i++ {
		xi := x[i]
		for j := 0; j < i; j++ {
			xj := x[j]
			// k < j: strict triples i > j > k.
			for k := 0; k < j; k++ {
				v := a.Data[idx]
				idx++
				xk := x[k]
				y[i] += 2 * v * xj * xk
				y[j] += 2 * v * xi * xk
				y[k] += 2 * v * xi * xj
			}
			count += 3 * int64(j)
			// k == j: i > j == k.
			v := a.Data[idx]
			idx++
			y[i] += v * xj * xj
			y[j] += 2 * v * xi * xj
			count += 2
		}
		// j == i row: k < i gives i == j > k; k == i is central.
		for k := 0; k < i; k++ {
			v := a.Data[idx]
			idx++
			xk := x[k]
			y[i] += 2 * v * xi * xk
			y[k] += v * xi * xi
		}
		count += 2 * int64(i)
		v := a.Data[idx]
		idx++
		y[i] += v * xi * xi
		count++
	}
	stats.add(count)
	return y
}

// PackedTernaryCount returns the exact number of ternary multiplications
// Algorithm 4 performs for dimension n: n²(n+1)/2 (§3).
func PackedTernaryCount(n int) int64 {
	return int64(n) * int64(n) * int64(n+1) / 2
}

// Dot returns xᵀy; with y = A ×₂ x ×₃ x this is λ = A ×₁ x ×₂ x ×₃ x
// (line 8 of Algorithm 1).
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("sttsv: Dot of lengths %d and %d", len(x), len(y)))
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}
