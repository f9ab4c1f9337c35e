package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Mixed-precision level-3 routines: float32 arithmetic on float32 storage.
//
// The operands are mat.Matrix32 tile images held by the residency layer
// (package tile), which rounds each tile once per precision epoch; the
// kernels here never convert. Packing is a plain copy into the same
// micro-panel layout as the float64 path (pack.go), and the micro-kernel
// (microkernel32.go) retires twice the lanes per FMA of the f64 one.

// trsmRecLeaf is the order below which the recursive f32 triangular solver
// drops to the scalar substitution kernel; above it the solve halves and the
// off-diagonal coupling runs through the packed Gemm32R path.
const trsmRecLeaf = 8

// trmmPackMin is the order from which the f32 triangular multiply
// materializes the triangle densely and runs as one packed GEMM; below it
// the scalar kernel's lower constant wins over the ~2× padded flops.
const trmmPackMin = 16

// opShape32 returns (rows, cols) of op(A).
func opShape32(a *mat.Matrix32, trans Transpose) (int, int) {
	if trans == NoTrans {
		return a.Rows, a.Cols
	}
	return a.Cols, a.Rows
}

// packA32R packs op(A)[i0:i0+mc, p0:p0+kc], scaled by alpha, into MR-tall
// column-major float32 micro-panels (element (ir+i, p) at buf[ir*kc+p*mr+i]),
// zero-padding rows past mc to a full MR.
func packA32R(buf []float32, a *mat.Matrix32, transA Transpose, alpha float32, i0, p0, mc, kc, mr int) {
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		dst := buf[ir*kc:]
		if transA == NoTrans {
			for i := 0; i < rows; i++ {
				src := a.Data[(i0+ir+i)*a.Stride+p0:][:kc]
				for p, v := range src {
					dst[p*mr+i] = alpha * v
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := a.Data[(p0+p)*a.Stride+i0+ir:][:rows]
				d := dst[p*mr : p*mr+rows : p*mr+rows]
				for i, v := range src {
					d[i] = alpha * v
				}
			}
		}
		if rows < mr {
			for p := 0; p < kc; p++ {
				d := dst[p*mr:]
				for i := rows; i < mr; i++ {
					d[i] = 0
				}
			}
		}
	}
}

// packB32R packs op(B)[p0:p0+kc, j0:j0+nc] into NR-wide row-major float32
// micro-panels (element (p, jr+j) at buf[jr*kc+p*nr+j]), zero-padding
// columns past nc to a full NR.
func packB32R(buf []float32, b *mat.Matrix32, transB Transpose, j0, p0, kc, nc, nr int) {
	if transB == NoTrans {
		for p := 0; p < kc; p++ {
			row := b.Data[(p0+p)*b.Stride+j0:][:nc]
			for jr := 0; jr < nc; jr += nr {
				cols := min(nr, nc-jr)
				d := buf[jr*kc+p*nr : jr*kc+p*nr+nr : jr*kc+p*nr+nr]
				copy(d[:cols], row[jr:jr+cols])
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		}
		return
	}
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		dst := buf[jr*kc:]
		for j := 0; j < cols; j++ {
			src := b.Data[(j0+jr+j)*b.Stride+p0:][:kc]
			for p, v := range src {
				dst[p*nr+j] = v
			}
		}
		if cols < nr {
			for p := 0; p < kc; p++ {
				d := dst[p*nr:]
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		}
	}
}

// Gemm32R computes C = alpha·op(A)·op(B) + beta·C on float32 storage.
//
// The accumulator is a float32 scratch block padded to whole micro-tiles,
// so the kernel never needs the fringe detour of the f64 path; the final
// merge folds beta in at float32.
func Gemm32R(transA, transB Transpose, alpha float64, a, b *mat.Matrix32, beta float64, c *mat.Matrix32) {
	m, ka := opShape32(a, transA)
	kb, n := opShape32(b, transB)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm32R shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, c.Rows, c.Cols))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || ka == 0 {
		scaleRows32R(float32(beta), c)
		return
	}
	mr, nr := gemmMR32, gemmNR32
	mp, np := roundUp(m, mr), roundUp(n, nr)
	acc := mat.GetBuf32(mp * np)
	defer mat.PutBuf32(acc)
	gemmPacked32R(transA, transB, float32(alpha), float32(beta), a, b, c, acc.Data, np, m, n, ka)
}

// gemmPacked32R is the five-loop blocked float32 driver. The kernel
// accumulates into acc, a float32 block padded to whole MR×NR micro-tiles
// (row stride ldc); each micro-tile is zeroed on its first k-block and
// merged into C — with beta folded in — right after its last k-block,
// while the tile is still cache-hot. That keeps the padded accumulator from
// costing separate zero and merge sweeps over cold memory. Blocking
// constants are shared with the f64 path — MC and NC are multiples of both
// micro-tile geometries — so every kernel call is a full micro-tile.
//
// Aliasing contract (Trmm32R's in-place packed multiply depends on it):
// C may alias the B operand unconditionally, and the A operand when
// n <= gemmNC. All of slab jc's packB reads complete before any merge writes
// to columns jc (packB runs per (jc, pc) and merges only fire on the last
// pc), merges touch only columns jc, and within the last k-slab packA of row
// block ic precedes the merges of row block ic while later row blocks are
// row-disjoint. With more than one jc slab, packA would re-read columns an
// earlier slab already merged — hence the gemmNC bound for A aliasing.
func gemmPacked32R(transA, transB Transpose, alpha, beta float32, a, b, c *mat.Matrix32, acc []float32, ldc, m, n, k int) {
	mr, nr := gemmMR32, gemmNR32
	kcMax := min(k, gemmKC)
	mcMax := min(roundUp(m, mr), gemmMC)
	ncMax := min(roundUp(n, nr), gemmNC)

	bufB := mat.GetBuf32(kcMax * ncMax)
	defer mat.PutBuf32(bufB)
	bufA := mat.GetBuf32(mcMax * kcMax)
	defer mat.PutBuf32(bufA)

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			first, last := pc == 0, pc+gemmKC >= k
			packB32R(bufB.Data, b, transB, jc, pc, kc, nc, nr)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA32R(bufA.Data, a, transA, alpha, ic, pc, mc, kc, mr)
				for jr := 0; jr < nc; jr += nr {
					bp := bufB.Data[jr*kc:]
					for ir := 0; ir < mc; ir += mr {
						off := (ic+ir)*ldc + jc + jr
						if first {
							for i := 0; i < mr; i++ {
								row := acc[off+i*ldc : off+i*ldc+nr]
								for z := range row {
									row[z] = 0
								}
							}
						}
						gemmKernel32(kc, bufA.Data[ir*kc:], bp, acc[off:], ldc)
						if last {
							merge32R(acc[off:], ldc, c, ic+ir, jc+jr, beta)
						}
					}
				}
			}
		}
	}
}

// merge32R folds one finished MR×NR accumulator micro-tile into C at
// (i0, j0): C = beta·C + tile at float32, clipped to C's live extent.
func merge32R(tile []float32, ldt int, c *mat.Matrix32, i0, j0 int, beta float32) {
	mi := min(gemmMR32, c.Rows-i0)
	nj := min(gemmNR32, c.Cols-j0)
	for i := 0; i < mi; i++ {
		crow := c.Data[(i0+i)*c.Stride+j0:][:nj]
		trow := tile[i*ldt:]
		switch beta {
		case 0:
			for j := range crow {
				crow[j] = trow[j]
			}
		case 1:
			for j := range crow {
				crow[j] += trow[j]
			}
		default:
			for j := range crow {
				crow[j] = beta*crow[j] + trow[j]
			}
		}
	}
}

// scaleRows32R applies C = beta·C.
func scaleRows32R(beta float32, c *mat.Matrix32) {
	if beta == 1 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] = beta * row[j]
			}
		}
	}
}

// Float32 scalar helpers on float32 storage.

func Axpy32R(alpha float32, x, y []float32) {
	for j := range y {
		y[j] += alpha * x[j]
	}
}

func Dot32R(x, y []float32) float32 {
	var s float32
	for j := range x {
		s += x[j] * y[j]
	}
	return s
}

func Scal32R(alpha float32, x []float32) {
	for j := range x {
		x[j] = alpha * x[j]
	}
}

// Trsm32R solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place on float32 storage. The solve recurses on halves
// of T — solve one half, fold the off-diagonal coupling into the other with
// a single order-n/2 packed Gemm32R, solve the remainder — dropping to the
// scalar substitution kernel at order trsmRecLeaf. Halving keeps the
// couplings as a few large GEMMs instead of many thin triBlock strips, so
// nearly all flops run through the f32 micro-kernel.
func Trsm32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix32) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32R with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm32R Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32R Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if alpha != 1 {
		a32 := float32(alpha)
		for i := 0; i < b.Rows; i++ {
			Scal32R(a32, b.Row(i))
		}
	}
	trsmRec32R(side, uplo, trans, diag, t, b)
}

// trsmRec32R is the recursive alpha-free body of Trsm32R.
func trsmRec32R(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix32) {
	n := t.Rows
	if n <= trsmRecLeaf {
		trsmBasic32R(side, uplo, trans, diag, t, b)
		return
	}
	n1 := n / 2
	n2 := n - n1
	t11 := t.View(0, 0, n1, n1)
	t22 := t.View(n1, n1, n2, n2)
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		k := b.Cols
		b1 := b.View(0, 0, n1, k)
		b2 := b.View(n1, 0, n2, k)
		if effLower {
			trsmRec32R(side, uplo, trans, diag, t11, b1)
			if trans == NoTrans {
				Gemm32R(NoTrans, NoTrans, -1, t.View(n1, 0, n2, n1), b1, 1, b2)
			} else {
				Gemm32R(Trans, NoTrans, -1, t.View(0, n1, n1, n2), b1, 1, b2)
			}
			trsmRec32R(side, uplo, trans, diag, t22, b2)
		} else {
			trsmRec32R(side, uplo, trans, diag, t22, b2)
			if trans == NoTrans {
				Gemm32R(NoTrans, NoTrans, -1, t.View(0, n1, n1, n2), b2, 1, b1)
			} else {
				Gemm32R(Trans, NoTrans, -1, t.View(n1, 0, n2, n1), b2, 1, b1)
			}
			trsmRec32R(side, uplo, trans, diag, t11, b1)
		}
		return
	}
	m := b.Rows
	b1 := b.View(0, 0, m, n1)
	b2 := b.View(0, n1, m, n2)
	if effLower {
		trsmRec32R(side, uplo, trans, diag, t22, b2)
		if trans == NoTrans {
			Gemm32R(NoTrans, NoTrans, -1, b2, t.View(n1, 0, n2, n1), 1, b1)
		} else {
			Gemm32R(NoTrans, Trans, -1, b2, t.View(0, n1, n1, n2), 1, b1)
		}
		trsmRec32R(side, uplo, trans, diag, t11, b1)
	} else {
		trsmRec32R(side, uplo, trans, diag, t11, b1)
		if trans == NoTrans {
			Gemm32R(NoTrans, NoTrans, -1, b1, t.View(0, n1, n1, n2), 1, b2)
		} else {
			Gemm32R(NoTrans, Trans, -1, b1, t.View(n1, 0, n2, n1), 1, b2)
		}
		trsmRec32R(side, uplo, trans, diag, t22, b2)
	}
}

// trsmBasic32R is the unblocked float32 substitution kernel behind Trsm32R.
func trsmBasic32R(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix32) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float32 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}

	if side == Left {
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy32R(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32R(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy32R(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32R(1/get(i, i), bi)
				}
			}
		}
		return
	}

	if trans == NoTrans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for p := n - 1; p >= 0; p-- {
					if diag == NonUnit {
						row[p] = row[p] / t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy32R(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] = row[p] / t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy32R(-v, t.Row(p)[p+1:n], row[p+1:n])
					}
				}
			}
		}
		return
	}
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		if lower {
			for j := n - 1; j >= 0; j-- {
				s := row[j] - Dot32R(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		} else {
			for j := 0; j < n; j++ {
				s := row[j] - Dot32R(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		}
	}
}

// Trmm32R computes B = alpha·op(T)·B (Side == Left) or B = alpha·B·op(T)
// (Side == Right) in place on float32 storage.
//
// From order trmmPackMin the triangle is materialized densely — zeros off
// the triangle, exact ones on a Unit diagonal, op() resolved so only the
// stored triangle of T is ever read — and the whole multiply runs as a
// single in-place packed Gemm32R (see the aliasing contract on
// gemmPacked32R). The padding costs ~2× the triangle's flops but they
// retire at micro-kernel rate, which wins well before nb-sized operands;
// the ib-strip T-factor multiplies of the QR update kernels are the main
// beneficiary. A Right-side multiply with n > gemmNC would need columns
// repacked after they were merged, so that case (and tiny orders) keeps the
// triBlock-blocked driver.
func Trmm32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix32) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trmm32R with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trmm32R Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trmm32R Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if n >= trmmPackMin && (side == Left || n <= gemmNC) {
		tri, tribuf := mat.GetMatrix32(n, n)
		defer mat.PutBuf32(tribuf)
		materializeTri32R(tri, t, uplo, trans, diag)
		if side == Left {
			Gemm32R(NoTrans, NoTrans, alpha, tri, b, 0, b)
		} else {
			Gemm32R(NoTrans, NoTrans, alpha, b, tri, 0, b)
		}
		return
	}
	if n <= triBlock {
		trmmBasic32R(side, uplo, trans, diag, float32(alpha), t, b)
		return
	}
	alpha32 := float32(alpha)
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		k := b.Cols
		if !effLower {
			for i0 := 0; i0 < n; i0 += triBlock {
				bs := min(triBlock, n-i0)
				bi := b.View(i0, 0, bs, k)
				rest := n - i0 - bs
				trmmBasic32R(Left, uplo, trans, diag, alpha32, t.View(i0, i0, bs, bs), bi)
				if rest > 0 {
					if trans == NoTrans {
						Gemm32R(NoTrans, NoTrans, alpha, t.View(i0, i0+bs, bs, rest), b.View(i0+bs, 0, rest, k), 1, bi)
					} else {
						Gemm32R(Trans, NoTrans, alpha, t.View(i0+bs, i0, rest, bs), b.View(i0+bs, 0, rest, k), 1, bi)
					}
				}
			}
			return
		}
		for i0 := ((n - 1) / triBlock) * triBlock; i0 >= 0; i0 -= triBlock {
			bs := min(triBlock, n-i0)
			bi := b.View(i0, 0, bs, k)
			trmmBasic32R(Left, uplo, trans, diag, alpha32, t.View(i0, i0, bs, bs), bi)
			if i0 > 0 {
				if trans == NoTrans {
					Gemm32R(NoTrans, NoTrans, alpha, t.View(i0, 0, bs, i0), b.View(0, 0, i0, k), 1, bi)
				} else {
					Gemm32R(Trans, NoTrans, alpha, t.View(0, i0, i0, bs), b.View(0, 0, i0, k), 1, bi)
				}
			}
		}
		return
	}
	m := b.Rows
	if !effLower {
		for j0 := ((n - 1) / triBlock) * triBlock; j0 >= 0; j0 -= triBlock {
			bs := min(triBlock, n-j0)
			bj := b.View(0, j0, m, bs)
			trmmBasic32R(Right, uplo, trans, diag, alpha32, t.View(j0, j0, bs, bs), bj)
			if j0 > 0 {
				if trans == NoTrans {
					Gemm32R(NoTrans, NoTrans, alpha, b.View(0, 0, m, j0), t.View(0, j0, j0, bs), 1, bj)
				} else {
					Gemm32R(NoTrans, Trans, alpha, b.View(0, 0, m, j0), t.View(j0, 0, bs, j0), 1, bj)
				}
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += triBlock {
		bs := min(triBlock, n-j0)
		bj := b.View(0, j0, m, bs)
		rest := n - j0 - bs
		trmmBasic32R(Right, uplo, trans, diag, alpha32, t.View(j0, j0, bs, bs), bj)
		if rest > 0 {
			if trans == NoTrans {
				Gemm32R(NoTrans, NoTrans, alpha, b.View(0, j0+bs, m, rest), t.View(j0+bs, j0, rest, bs), 1, bj)
			} else {
				Gemm32R(NoTrans, Trans, alpha, b.View(0, j0+bs, m, rest), t.View(j0, j0+bs, bs, rest), 1, bj)
			}
		}
	}
}

// materializeTri32R writes op(T) densely into dst: triangle entries copied,
// zeros off the triangle, exact ones on a Unit diagonal. op() is resolved
// here so the packed multiply sees a plain NoTrans operand, and only the
// stored triangle of t is read — values outside it (say, the R factor above
// a Householder V) never leak into the product.
func materializeTri32R(dst, t *mat.Matrix32, uplo Uplo, trans Transpose, diag Diag) {
	n := t.Rows
	effLower := (uplo == Lower) != (trans == Trans)
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		lo, hi := 0, i+1
		if !effLower {
			lo, hi = i, n
		}
		for j := 0; j < lo; j++ {
			row[j] = 0
		}
		for j := hi; j < n; j++ {
			row[j] = 0
		}
		if trans == Trans {
			for j := lo; j < hi; j++ {
				row[j] = t.At(j, i)
			}
		} else {
			copy(row[lo:hi], t.Row(i)[lo:hi])
		}
		if diag == Unit {
			row[i] = 1
		}
	}
}

// trmmBasic32R is the unblocked float32 triangular-multiply kernel behind
// Trmm32R.
func trmmBasic32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float32, t, b *mat.Matrix32) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float32 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	if side == Left {
		if !lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32R(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy32R(get(i, p), b.Row(p), bi)
				}
				Scal32R(alpha, bi)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32R(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy32R(get(i, p), b.Row(p), bi)
				}
				Scal32R(alpha, bi)
			}
		}
		return
	}
	if trans == Trans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot32R(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot32R(row[:j], t.Row(j)[:j])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			}
		}
		return
	}
	buf := mat.GetBuf32(n)
	defer mat.PutBuf32(buf)
	tmp := buf.Data[:n]
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for j := range tmp {
			tmp[j] = 0
		}
		for p := 0; p < n; p++ {
			v := row[p]
			if v == 0 {
				continue
			}
			tr := t.Row(p)
			if !lower {
				if diag == NonUnit {
					for j := p; j < n; j++ {
						tmp[j] += v * tr[j]
					}
				} else {
					tmp[p] += v
					for j := p + 1; j < n; j++ {
						tmp[j] += v * tr[j]
					}
				}
			} else {
				if diag == NonUnit {
					for j := 0; j <= p; j++ {
						tmp[j] += v * tr[j]
					}
				} else {
					for j := 0; j < p; j++ {
						tmp[j] += v * tr[j]
					}
					tmp[p] += v
				}
			}
		}
		for j := range row {
			row[j] = alpha * tmp[j]
		}
	}
}
