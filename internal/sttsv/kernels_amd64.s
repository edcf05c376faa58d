#include "textflag.h"

// AVX twins of the Go micro-kernels in kernels.go. Lane j of a row
// vector holds column k+j; every multiply and add is a separate VMULPD
// or VADDPD (no FMA), applied in the order the Go loop applies it, so
// each lane's result is bit-identical to the Go loop's. Only AVX
// instructions are used.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// AXPY4 sets t = ((c0·a + c1·b) + c2·c) + c3·d for rows a–d (the Go
// loop's c0*v0 + c1*v1 + c2*v2 + c3*v3); u is scratch.
#define AXPY4(a, b, c, d, c0, c1, c2, c3, t, u) \
	VMULPD c0, a, t; \
	VMULPD c1, b, u; \
	VADDPD u, t, t;  \
	VMULPD c2, c, u; \
	VADDPD u, t, t;  \
	VMULPD c3, d, u; \
	VADDPD u, t, t

// DOTS4 takes the products row_t[k+j]·xk[k+j] of rows a–d, transposes
// them so lane t holds row t, and adds columns k, k+1, k+2, k+3 to acc in
// that order (the Go loop's s_t += v_t*x, one k at a time). It clobbers
// a–d; t is scratch.
#define DOTS4(a, b, c, d, t, acc) \
	VUNPCKLPD  b, a, t;          \
	VUNPCKHPD  b, a, b;          \
	VUNPCKLPD  d, c, a;          \
	VUNPCKHPD  d, c, d;          \
	VPERM2F128 $0x20, a, t, c;   \
	VPERM2F128 $0x31, a, t, t;   \
	VPERM2F128 $0x20, d, b, a;   \
	VPERM2F128 $0x31, d, b, b;   \
	VADDPD     c, acc, acc;      \
	VADDPD     a, acc, acc;      \
	VADDPD     t, acc, acc;      \
	VADDPD     b, acc, acc

// LOADS loads s[off/8 : off/8+4] from p into y lane by lane, and STORES
// writes y back the same way: the Go side reads and writes the sums as
// single float64s, and 8-byte accesses on both sides keep the loads
// served from the store buffer. x is y's low half; t is a scratch X.
#define LOADS(off, p, y, x, t) \
	VMOVSD      off+0(p), x;   \
	VMOVHPD     off+8(p), x, x; \
	VMOVSD      off+16(p), t;  \
	VMOVHPD     off+24(p), t, t; \
	VINSERTF128 $1, t, y, y

#define STORES(off, p, y, x, t) \
	VMOVSD       x, off+0(p);  \
	VMOVHPD      x, off+8(p);  \
	VEXTRACTF128 $1, y, t;     \
	VMOVSD       t, off+16(p); \
	VMOVHPD      t, off+24(p)

// func panel4AVX(rows []float64, stride int, xk, yk []float64, c, s *[4]float64)
TEXT ·panel4AVX(SB), NOSPLIT, $0-96
	MOVQ rows_base+0(FP), SI
	MOVQ stride+24(FP), R8
	MOVQ xk_base+32(FP), DI
	MOVQ xk_len+40(FP), CX
	MOVQ yk_base+56(FP), DX
	MOVQ c+80(FP), AX
	MOVQ s+88(FP), BX
	SHLQ $3, R8
	LEAQ (SI)(R8*1), R9  // row 1
	LEAQ (SI)(R8*2), R10 // row 2
	LEAQ (R9)(R8*2), R11 // row 3
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	LOADS(0, BX, Y11, X11, X4)
	SHLQ $3, CX
	JZ   done4
	XORQ R12, R12

loop4:
	VMOVUPD (SI)(R12*1), Y0
	VMOVUPD (R9)(R12*1), Y1
	VMOVUPD (R10)(R12*1), Y2
	VMOVUPD (R11)(R12*1), Y3
	AXPY4(Y0, Y1, Y2, Y3, Y12, Y13, Y14, Y15, Y4, Y5)
	VMOVUPD (DX)(R12*1), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (DX)(R12*1)
	VMOVUPD (DI)(R12*1), Y6
	VMULPD  Y6, Y0, Y0
	VMULPD  Y6, Y1, Y1
	VMULPD  Y6, Y2, Y2
	VMULPD  Y6, Y3, Y3
	DOTS4(Y0, Y1, Y2, Y3, Y4, Y11)
	ADDQ    $32, R12
	CMPQ    R12, CX
	JB      loop4

done4:
	STORES(0, BX, Y11, X11, X4)
	VZEROUPPER
	RET

// func panel8AVX(rows []float64, stride int, xk, yk []float64, c, s *[8]float64)
//
// Two panels, rows 0–3 (A) and 4–7 (B), share each pass: yk gets
// (yk + A) + B and the two dot chains run side by side. The eight
// broadcast coefficients live in the frame, since the rows, the two
// accumulators and the scratch take most of the sixteen Y registers.
TEXT ·panel8AVX(SB), NOSPLIT, $256-96
	MOVQ c+80(FP), AX
	VBROADCASTSD 0(AX), Y0
	VMOVUPD      Y0, 0(SP)
	VBROADCASTSD 8(AX), Y0
	VMOVUPD      Y0, 32(SP)
	VBROADCASTSD 16(AX), Y0
	VMOVUPD      Y0, 64(SP)
	VBROADCASTSD 24(AX), Y0
	VMOVUPD      Y0, 96(SP)
	VBROADCASTSD 32(AX), Y0
	VMOVUPD      Y0, 128(SP)
	VBROADCASTSD 40(AX), Y0
	VMOVUPD      Y0, 160(SP)
	VBROADCASTSD 48(AX), Y0
	VMOVUPD      Y0, 192(SP)
	VBROADCASTSD 56(AX), Y0
	VMOVUPD      Y0, 224(SP)
	MOVQ s+88(FP), AX
	LOADS(0, AX, Y14, X14, X0)
	LOADS(32, AX, Y15, X15, X0)
	MOVQ rows_base+0(FP), SI
	MOVQ stride+24(FP), R8
	MOVQ xk_base+32(FP), DI
	MOVQ xk_len+40(FP), CX
	MOVQ yk_base+56(FP), DX
	SHLQ $3, R8
	LEAQ (SI)(R8*1), R9   // row 1
	LEAQ (SI)(R8*2), R10  // row 2
	LEAQ (R9)(R8*2), R11  // row 3
	LEAQ (R10)(R8*2), R13 // row 4
	LEAQ (R11)(R8*2), AX  // row 5
	LEAQ (R13)(R8*2), BX  // row 6
	LEAQ (AX)(R8*2), R8   // row 7
	SHLQ $3, CX
	JZ   done8
	XORQ R12, R12

loop8:
	VMOVUPD (SI)(R12*1), Y0
	VMOVUPD (R9)(R12*1), Y1
	VMOVUPD (R10)(R12*1), Y2
	VMOVUPD (R11)(R12*1), Y3
	VMOVUPD (R13)(R12*1), Y4
	VMOVUPD (AX)(R12*1), Y5
	VMOVUPD (BX)(R12*1), Y6
	VMOVUPD (R8)(R12*1), Y7
	AXPY4(Y0, Y1, Y2, Y3, 0(SP), 32(SP), 64(SP), 96(SP), Y9, Y10)
	AXPY4(Y4, Y5, Y6, Y7, 128(SP), 160(SP), 192(SP), 224(SP), Y10, Y11)
	VMOVUPD (DX)(R12*1), Y12
	VADDPD  Y9, Y12, Y12
	VADDPD  Y10, Y12, Y12
	VMOVUPD Y12, (DX)(R12*1)
	VMOVUPD (DI)(R12*1), Y8
	VMULPD  Y8, Y0, Y0
	VMULPD  Y8, Y1, Y1
	VMULPD  Y8, Y2, Y2
	VMULPD  Y8, Y3, Y3
	VMULPD  Y8, Y4, Y4
	VMULPD  Y8, Y5, Y5
	VMULPD  Y8, Y6, Y6
	VMULPD  Y8, Y7, Y7
	DOTS4(Y0, Y1, Y2, Y3, Y9, Y14)
	DOTS4(Y4, Y5, Y6, Y7, Y10, Y15)
	ADDQ    $32, R12
	CMPQ    R12, CX
	JB      loop8

done8:
	MOVQ s+88(FP), AX
	STORES(0, AX, Y14, X14, X0)
	STORES(32, AX, Y15, X15, X0)
	VZEROUPPER
	RET

// func rowAVX(r, xk, yk []float64, c float64, s *[4]float64)
//
// Lane j of the accumulator is the Go loop's s_j: it takes the columns
// k ≡ j (mod 4) in order.
TEXT ·rowAVX(SB), NOSPLIT, $0-88
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), CX
	MOVQ xk_base+24(FP), DI
	MOVQ yk_base+48(FP), DX
	VBROADCASTSD c+72(FP), Y3
	MOVQ s+80(FP), BX
	LOADS(0, BX, Y2, X2, X0)
	SHLQ $3, CX
	JZ   donerow
	XORQ AX, AX

looprow:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (DI)(AX*1), Y0, Y1
	VADDPD  Y1, Y2, Y2
	VMULPD  Y3, Y0, Y0
	VMOVUPD (DX)(AX*1), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      looprow

donerow:
	STORES(0, BX, Y2, X2, X0)
	VZEROUPPER
	RET
