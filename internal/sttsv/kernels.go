package sttsv

import (
	"repro/internal/tensor"
)

// This file holds the register-tiled block kernels — the production local-
// compute path of Algorithm 5. The seed kernel (BlockContributeScalar)
// walks elements one at a time and touches yK once per stored element per
// row; the tiled kernels instead process panels of four rows at once
// through three micro-kernels, so each yK element is read and written once
// per four (or eight) rows and the running dot products live in registers:
//
//   - panelDotAxpy4: four same-length rows r0..r3, one pass over dk
//     computing the four dots s_t = Σ r_t[dk]·xK[dk] while accumulating the
//     fused update yK[dk] += c0·r0[dk] + c1·r1[dk] + c2·r2[dk] + c3·r3[dk];
//   - panelDotAxpy8: two such panels in one pass, for the kinds whose yK
//     aliases neither yI nor yJ;
//   - rowDotAxpy: the single-row remainder, 4-wide unrolled with four
//     independent dot accumulators.
//
// The tiling axis differs per kind to keep panel rows the same length:
// OffDiagonal and DiagPairHigh tile over dj (rows span the full dk range),
// DiagPairLow tiles over di (its di-planes are congruent triangles), and
// Central — of which there are only m per tensor versus Θ(m³) off-diagonal
// blocks — uses the unrolled single-row micro-kernel on its triangular
// rows. All kernels only ever accumulate into y, so the aliasing contract
// of BlockContributeScalar (shared slices when block coordinates coincide)
// is preserved.
//
// Vector path: on amd64 CPUs with AVX (useAVX, read once from CPUID) the
// micro-kernels run each row's multiple-of-four prefix in assembly,
// kernels_amd64.s, four columns per instruction, and the Go loops finish
// the tail from the same accumulators. Every lane performs the Go loop's
// own multiplies and adds, each rounded on its own (no FMA), in the Go
// loop's order, so both paths give the same bits and a result does not
// depend on the CPU that computed it.
//
// Determinism: every kernel is a fixed sequential instruction stream — the
// output bits depend only on the inputs, never on scheduling. Relative to
// the scalar reference the summation order is reassociated, so results may
// differ from it (and from Packed) by a few ulps; the equivalence tests
// pin the tolerance.

// TiledPath names the micro-kernel path BlockContribute runs on this CPU:
// "avx" (assembly prefixes, Go tails) or "go". Both give the same bits.
func TiledPath() string {
	if useAVX {
		return "avx"
	}
	return "go"
}

// panelDotAxpy4 is the 4-row fused dot/axpy micro-kernel. Row t is
// rows[t·stride:][:l] with l = len(xk) ≤ len(yk) and stride ≥ 0; it adds
// Σ_k row_t[k]·xk[k] into s[t], summed in k order, and accumulates
// yk[k] += ((c[0]·row_0[k] + c[1]·row_1[k]) + c[2]·row_2[k]) + c[3]·row_3[k].
func panelDotAxpy4(rows []float64, stride int, xk, yk []float64, c, s *[4]float64) {
	panel4(rows, stride, xk, yk, c, s, useAVX)
}

// panel4 is panelDotAxpy4 with the path explicit: with vec set the
// assembly takes the multiple-of-four prefix of the rows and the Go loop
// the rest, from the same accumulators; without it the Go loop takes all.
func panel4(rows []float64, stride int, xk, yk []float64, c, s *[4]float64, vec bool) {
	l := len(xk)
	_ = rows[3*stride : 3*stride+l] // the assembly reads the rows unchecked
	k := 0
	if vec && l >= 4 {
		k = l &^ 3
		panel4AVX(rows, stride, xk[:k], yk[:k], c, s)
		if k == l {
			return
		}
	}
	xk, yk = xk[k:], yk[k:l]
	r0 := rows[k:l]
	r1 := rows[stride+k : stride+l]
	r2 := rows[2*stride+k : 2*stride+l]
	r3 := rows[3*stride+k : 3*stride+l]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for i, x := range xk {
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		s0 += v0 * x
		s1 += v1 * x
		s2 += v2 * x
		s3 += v3 * x
		yk[i] += c0*v0 + c1*v1 + c2*v2 + c3*v3
	}
	*s = [4]float64{s0, s1, s2, s3}
}

// panelDotAxpy8 runs rows 0–3 and rows 4–7 as two panelDotAxpy4 panels in
// one pass over k: yk[k] becomes (yk[k] + P0[k]) + P1[k], which is what two
// calls in a row compute, with two independent dot chains. Pairing panels
// this way is exact only where nothing else writes yk between them, i.e.
// for blocks whose yK aliases neither yI nor yJ.
func panelDotAxpy8(rows []float64, stride int, xk, yk []float64, c, s *[8]float64) {
	panel8(rows, stride, xk, yk, c, s, useAVX)
}

// panel8 is panelDotAxpy8 with the path explicit, as in panel4; the Go
// loop finishes each panel in turn.
func panel8(rows []float64, stride int, xk, yk []float64, c, s *[8]float64, vec bool) {
	l := len(xk)
	_ = rows[7*stride : 7*stride+l]
	k := 0
	if vec && l >= 4 {
		k = l &^ 3
		panel8AVX(rows, stride, xk[:k], yk[:k], c, s)
		if k == l {
			return
		}
	}
	rows, xk, yk = rows[k:], xk[k:], yk[k:]
	panel4(rows, stride, xk, yk, (*[4]float64)(c[:4]), (*[4]float64)(s[:4]), false)
	panel4(rows[4*stride:], stride, xk, yk, (*[4]float64)(c[4:]), (*[4]float64)(s[4:]), false)
}

// rowDotAxpy returns Σ r[k]·xk[k] while accumulating yk[k] += c·r[k],
// unrolled 4-wide with independent dot accumulators.
func rowDotAxpy(r, xk, yk []float64, c float64) float64 {
	return row(r, xk, yk, c, useAVX)
}

// row is rowDotAxpy with the path explicit, as in panel4. Accumulator
// s_j takes the columns k ≡ j (mod 4) of the multiple-of-four prefix —
// lane j of one AVX register on the vector path — and s_0 the tail. The
// vector path starts at two vector steps: one register holds all four
// accumulators, so its add chain bounds it as the Go loop's four chains
// bound the Go loop, and on a shorter row the assembly call costs more
// than the step saves.
func row(r, xk, yk []float64, c float64, vec bool) float64 {
	l := len(r)
	xk = xk[:l]
	yk = yk[:l]
	var s0, s1, s2, s3 float64
	k := 0
	if vec && l >= 8 {
		var s [4]float64
		k = l &^ 3
		rowAVX(r[:k], xk[:k], yk[:k], c, &s)
		s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
	}
	for ; k+4 <= l; k += 4 {
		v0, v1, v2, v3 := r[k], r[k+1], r[k+2], r[k+3]
		s0 += v0 * xk[k]
		s1 += v1 * xk[k+1]
		s2 += v2 * xk[k+2]
		s3 += v3 * xk[k+3]
		yk[k] += c * v0
		yk[k+1] += c * v1
		yk[k+2] += c * v2
		yk[k+3] += c * v3
	}
	for ; k < l; k++ {
		v := r[k]
		s0 += v * xk[k]
		yk[k] += c * v
	}
	return (s0 + s1) + (s2 + s3)
}

// BlockContribute accumulates the contributions of one tetrahedral-
// partition block into the output row blocks — the local computation of
// Algorithm 5 (lines 24–36), dispatched to the register-tiled kernel for
// the block's kind. Semantics (slice contract, aliasing, zero padding,
// stats accounting) match BlockContributeScalar; only the floating-point
// summation order differs.
func BlockContribute(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64, stats *Stats) {
	checkBlockLens(blk, xI, xJ, xK, yI, yJ, yK)
	switch blk.Kind {
	case tensor.OffDiagonal:
		contributeOffDiagonal(blk, xI, xJ, xK, yI, yJ, yK)
	case tensor.DiagPairHigh:
		contributeDiagPairHigh(blk, xI, xJ, xK, yI, yJ, yK)
	case tensor.DiagPairLow:
		contributeDiagPairLow(blk, xI, xJ, xK, yI, yJ, yK)
	case tensor.Central:
		contributeCentral(blk, xI, xJ, xK, yI, yJ, yK)
	default:
		panic("sttsv: unknown block kind")
	}
	stats.add(BlockTernaryCount(blk.Kind, blk.B))
}

// contributeOffDiagonal handles I > J > K: b³ stored values, rows of
// length b, tiled over dj: eight rows per pass, then four, then single
// rows. The eight-row pass needs yK to alias neither yI nor yJ, which
// holds here and in DiagPairHigh blocks.
func contributeOffDiagonal(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	data := blk.Data
	for di := 0; di < b; di++ {
		txi2 := 2 * xI[di]
		slab := data[di*b*b:]
		acc := 0.0
		dj := 0
		for ; dj+8 <= b; dj += 8 {
			var c, s [8]float64
			for t := range c {
				c[t] = txi2 * xJ[dj+t]
			}
			panelDotAxpy8(slab[dj*b:], b, xK, yK, &c, &s)
			acc = foldPanel(acc, txi2, (*[4]float64)(s[:4]), xJ[dj:dj+4], yJ[dj:dj+4])
			acc = foldPanel(acc, txi2, (*[4]float64)(s[4:]), xJ[dj+4:dj+8], yJ[dj+4:dj+8])
		}
		if dj+4 <= b {
			var c, s [4]float64
			for t := range c {
				c[t] = txi2 * xJ[dj+t]
			}
			panelDotAxpy4(slab[dj*b:], b, xK, yK, &c, &s)
			acc = foldPanel(acc, txi2, &s, xJ[dj:dj+4], yJ[dj:dj+4])
			dj += 4
		}
		for ; dj < b; dj++ {
			xj := xJ[dj]
			s := rowDotAxpy(slab[dj*b:(dj+1)*b], xK, yK, txi2*xj)
			acc += s * xj
			yJ[dj] += txi2 * s
		}
		yI[di] += 2 * acc
	}
}

// contributeDiagPairHigh handles I == J > K: rows (di, dj <= di) of length
// b; the dj < di rows are strict triples tiled over dj as in
// contributeOffDiagonal, the dj == di row carries the i == j > k
// coefficient xi².
func contributeDiagPairHigh(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	data := blk.Data
	for di := 0; di < b; di++ {
		xi := xI[di]
		txi2 := 2 * xi
		slab := data[di*(di+1)/2*b:]
		acc := 0.0 // Σ_{dj<di} s_dj·xJ[dj]; folded into yI[di] at the end
		dj := 0
		for ; dj+8 <= di; dj += 8 {
			var c, s [8]float64
			for t := range c {
				c[t] = txi2 * xJ[dj+t]
			}
			panelDotAxpy8(slab[dj*b:], b, xK, yK, &c, &s)
			acc = foldPanel(acc, txi2, (*[4]float64)(s[:4]), xJ[dj:dj+4], yJ[dj:dj+4])
			acc = foldPanel(acc, txi2, (*[4]float64)(s[4:]), xJ[dj+4:dj+8], yJ[dj+4:dj+8])
		}
		if dj+4 <= di {
			var c, s [4]float64
			for t := range c {
				c[t] = txi2 * xJ[dj+t]
			}
			panelDotAxpy4(slab[dj*b:], b, xK, yK, &c, &s)
			acc = foldPanel(acc, txi2, &s, xJ[dj:dj+4], yJ[dj:dj+4])
			dj += 4
		}
		for ; dj < di; dj++ {
			xj := xJ[dj]
			s := rowDotAxpy(slab[dj*b:(dj+1)*b], xK, yK, txi2*xj)
			acc += s * xj
			yJ[dj] += txi2 * s
		}
		// dj == di row.
		s := rowDotAxpy(slab[di*b:(di+1)*b], xK, yK, xi*xi)
		yI[di] += 2*acc + 2*s*xi
	}
}

// foldPanel folds one four-row panel's dots into yj[t] += txi2·s[t] and
// returns acc + (((s[0]·xj[0] + s[1]·xj[1]) + s[2]·xj[2]) + s[3]·xj[3]).
func foldPanel(acc, txi2 float64, s *[4]float64, xj, yj []float64) float64 {
	xj, yj = xj[:4], yj[:4]
	for t, v := range s {
		yj[t] += txi2 * v
	}
	return acc + (s[0]*xj[0] + s[1]*xj[1] + s[2]*xj[2] + s[3]*xj[3])
}

// contributeDiagPairLow handles I > J == K: every di-plane is the same
// b(b+1)/2-entry triangle over (dj >= dk), so the panel axis is di — four
// congruent triangles advance in lockstep through panelDotAxpy4 with
// coefficients 2·xj·xi_t.
func contributeDiagPairLow(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	data := blk.Data
	tri := b * (b + 1) / 2
	di := 0
	for ; di+4 <= b; di += 4 {
		xi0, xi1, xi2, xi3 := xI[di], xI[di+1], xI[di+2], xI[di+3]
		b0 := di * tri
		b1, b2, b3 := b0+tri, b0+2*tri, b0+3*tri
		off := 0
		for dj := 0; dj < b; dj++ {
			xj := xJ[dj]
			txj2 := 2 * xj
			c := [4]float64{txj2 * xi0, txj2 * xi1, txj2 * xi2, txj2 * xi3}
			var s [4]float64
			panelDotAxpy4(data[b0+off:], tri, xK[:dj], yK[:dj], &c, &s)
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			v0, v1, v2, v3 := data[b0+off+dj], data[b1+off+dj], data[b2+off+dj], data[b3+off+dj]
			xjxj := xj * xj
			yI[di] += 2*s0*xj + v0*xjxj
			yI[di+1] += 2*s1*xj + v1*xjxj
			yI[di+2] += 2*s2*xj + v2*xjxj
			yI[di+3] += 2*s3*xj + v3*xjxj
			yJ[dj] += 2*(s0*xi0+s1*xi1+s2*xi2+s3*xi3) + txj2*(v0*xi0+v1*xi1+v2*xi2+v3*xi3)
			off += dj + 1
		}
	}
	for ; di < b; di++ {
		xi := xI[di]
		base := di * tri
		off := 0
		for dj := 0; dj < b; dj++ {
			xj := xJ[dj]
			s := rowDotAxpy(data[base+off:base+off+dj], xK, yK, 2*xi*xj)
			v := data[base+off+dj]
			yI[di] += 2*s*xj + v*xj*xj
			yJ[dj] += 2*s*xi + 2*v*xi*xj
			off += dj + 1
		}
	}
}

// contributeCentral handles I == J == K. Central blocks number only m per
// tensor (versus Θ(m³) off-diagonal), and their triangular rows vary in
// length, so the win here is the unrolled single-row micro-kernel rather
// than panel tiling.
func contributeCentral(blk *tensor.Block, xI, xJ, xK, yI, yJ, yK []float64) {
	b := blk.B
	data := blk.Data
	off := 0
	for di := 0; di < b; di++ {
		xi := xI[di]
		for dj := 0; dj < di; dj++ {
			xj := xJ[dj]
			s := rowDotAxpy(data[off:off+dj], xK, yK, 2*xi*xj)
			v := data[off+dj] // dk == dj: i > j == k
			yI[di] += 2*s*xj + v*xj*xj
			yJ[dj] += 2*s*xi + 2*v*xi*xj
			off += dj + 1
		}
		// dj == di row: dk < di carries the i == j > k coefficient xi²,
		// dk == di is the central element.
		s := rowDotAxpy(data[off:off+di], xK, yK, xi*xi)
		v := data[off+di]
		yI[di] += 2*s*xi + v*xi*xi
		off += di + 1
	}
}
