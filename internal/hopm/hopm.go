// Package hopm implements the applications that motivate the STTSV kernel
// (§1 of the paper):
//
//   - Algorithm 1, the (symmetric) higher-order power method for
//     Z-eigenpairs of a symmetric 3-tensor, plus the shifted variant
//     SS-HOPM (Kolda & Mayo) whose convergence is guaranteed for a large
//     enough shift;
//   - Algorithm 2, the gradient of the symmetric CP objective
//     f(X) = 1/6·‖A − Σ_ℓ x_ℓ∘x_ℓ∘x_ℓ‖²;
//   - a gradient-descent driver for symmetric CP decomposition and a
//     deflation loop that extracts successive rank-one components.
//
// Every STTSV evaluation goes through a pluggable function, so the same
// drivers run on the sequential kernels or on the simulated parallel
// Algorithm 5.
package hopm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/la"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// STTSV evaluates y = A ×₂ x ×₃ x for a fixed tensor. The hopm drivers
// accept any implementation (sequential, blocked, or simulated-parallel).
type STTSV func(x []float64) []float64

// PackedSTTSV adapts the sequential Algorithm 4 kernel to the STTSV
// function type.
func PackedSTTSV(a *tensor.Symmetric) STTSV {
	return func(x []float64) []float64 { return sttsv.Packed(a, x, nil) }
}

// Options configures the power method.
type Options struct {
	// MaxIter bounds the iteration count (default 1000).
	MaxIter int
	// Tol is the convergence tolerance on the eigenvalue estimate
	// (default 1e-12).
	Tol float64
	// Shift is the SS-HOPM shift α: the update uses ŷ = y + α·x. Zero
	// gives the plain Algorithm 1 (S-HOPM).
	Shift float64
	// X0 is the starting vector; when nil a deterministic random unit
	// vector drawn from Seed is used.
	X0 []float64
	// Seed drives the random start when X0 is nil.
	Seed int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxIter == 0 {
		out.MaxIter = 1000
	}
	if out.Tol == 0 {
		out.Tol = 1e-12
	}
	return out
}

// Eigenpair is a computed Z-eigenpair candidate.
type Eigenpair struct {
	// Lambda is the Z-eigenvalue estimate λ = A ×₁x ×₂x ×₃x.
	Lambda float64
	// X is the unit eigenvector estimate.
	X []float64
	// Iterations is the number of STTSV evaluations performed.
	Iterations int
	// Residual is ‖A ×₂x ×₃x − λx‖₂ at termination.
	Residual float64
	// Converged reports whether the eigenvalue estimate stabilized within
	// tolerance before MaxIter.
	Converged bool
}

// PowerMethod runs Algorithm 1 (or SS-HOPM when opts.Shift != 0) on the
// given STTSV oracle for dimension n.
func PowerMethod(f STTSV, n int, opts Options) (*Eigenpair, error) {
	if n < 1 {
		return nil, fmt.Errorf("hopm: dimension %d", n)
	}
	o := opts.withDefaults()
	x := make([]float64, n)
	if o.X0 != nil {
		if len(o.X0) != n {
			return nil, fmt.Errorf("hopm: X0 length %d, want %d", len(o.X0), n)
		}
		copy(x, o.X0)
	} else {
		rng := rand.New(rand.NewSource(o.Seed))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
	}
	if la.Normalize(x) == 0 {
		return nil, fmt.Errorf("hopm: zero starting vector")
	}

	pair := &Eigenpair{X: x}
	prev := math.Inf(1)
	for it := 1; it <= o.MaxIter; it++ {
		y := f(x)
		if len(y) != n {
			return nil, fmt.Errorf("hopm: STTSV returned length %d, want %d", len(y), n)
		}
		lambda := la.Dot(x, y)
		pair.Lambda = lambda
		pair.Iterations = it
		// Residual before the update: ‖y − λx‖.
		res := 0.0
		for i := range y {
			d := y[i] - lambda*x[i]
			res += d * d
		}
		pair.Residual = math.Sqrt(res)
		if math.Abs(lambda-prev) <= o.Tol*(1+math.Abs(lambda)) {
			pair.Converged = true
			break
		}
		prev = lambda
		if o.Shift != 0 {
			la.Axpy(o.Shift, x, y)
		}
		copy(x, y)
		if la.Normalize(x) == 0 {
			return nil, fmt.Errorf("hopm: iterate collapsed to zero (singular tensor?)")
		}
	}
	return pair, nil
}

// SuggestedShift returns a shift α that makes SS-HOPM provably convergent:
// any α > β(A) works, where β(A) is bounded by the maximum absolute entry
// times n² (a crude but safe bound from the Gershgorin-style estimate).
func SuggestedShift(a *tensor.Symmetric) float64 {
	maxAbs := 0.0
	for _, v := range a.Data {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	return maxAbs * float64(a.N) * float64(a.N)
}

// Residual returns ‖A ×₂x ×₃x − λx‖₂ for an eigenpair candidate, using the
// supplied STTSV oracle.
func Residual(f STTSV, x []float64, lambda float64) float64 {
	y := f(x)
	s := 0.0
	for i := range y {
		d := y[i] - lambda*x[i]
		s += d * d
	}
	return math.Sqrt(s)
}
