//go:build !amd64

package sttsv

// Off amd64 the micro-kernels are the Go loops alone; the assembly
// entry points below are never called.
const useAVX = false

func panel4AVX(rows []float64, stride int, xk, yk []float64, c, s *[4]float64) {
	panic("sttsv: no assembly kernels on this architecture")
}

func panel8AVX(rows []float64, stride int, xk, yk []float64, c, s *[8]float64) {
	panic("sttsv: no assembly kernels on this architecture")
}

func rowAVX(r, xk, yk []float64, c float64, s *[4]float64) {
	panic("sttsv: no assembly kernels on this architecture")
}
