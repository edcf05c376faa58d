package sttsv

// useAVX selects the assembly micro-kernels: the CPU has AVX and the OS
// saves the YMM registers (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits
// 1 and 2). It is set once at start-up; both paths give the same bits,
// so nothing else selects between them.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	eax, _ := xgetbv()
	return eax&xmmYmm == xmmYmm
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// panel4AVX is panelDotAxpy4 over len(xk) columns, a positive multiple of
// four; rows must hold 3·stride+len(xk) elements.
//
//go:noescape
func panel4AVX(rows []float64, stride int, xk, yk []float64, c, s *[4]float64)

// panel8AVX is panelDotAxpy8 over len(xk) columns, a positive multiple of
// four; rows must hold 7·stride+len(xk) elements.
//
//go:noescape
func panel8AVX(rows []float64, stride int, xk, yk []float64, c, s *[8]float64)

// rowAVX accumulates Σ r[k]·xk[k] into s[k mod 4] and yk[k] += c·r[k] for
// k < len(r), a positive multiple of four.
//
//go:noescape
func rowAVX(r, xk, yk []float64, c float64, s *[4]float64)
