package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C.
//
// All four transpose variants run through the same BLIS-style packed path:
// operands are repacked into micro-panels in the exact order the register-
// blocked micro-kernel consumes (pack.go, microkernel.go), with the
// transposes absorbed by the packing. Workspace comes from the mat arena,
// so steady-state calls perform no heap allocation. A C at most half a
// micro-tile wide with an untransposed B — a right-hand side's replay —
// skips packing (gemmNarrow) but rounds every element the same way.
func Gemm(transA, transB Transpose, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, ka := opShape(a, transA)
	kb, n := opShape(b, transB)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, c.Rows, c.Cols))
	}
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c.Row(i)
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || ka == 0 || m == 0 || n == 0 {
		return
	}
	// Past half a micro-tile, reading A once per column costs more than
	// packing it once (the crossover measured at nb=192 is n = 5 of 8).
	if 2*n <= gemmNR && transB == NoTrans {
		gemmNarrow(transA, alpha, a, b, c, m, n, ka)
		return
	}
	gemmPacked(transA, transB, alpha, a, b, c, m, n, ka)
}

// gemmNarrow computes C += alpha·op(A)·B for a narrow C without packing.
// The packed path would copy all of op(A) and run the micro-kernel over an
// NR-wide panel with n live columns; this one reads A where it lies. Every
// element of C gets the micro-kernel's arithmetic exactly (gemmNarrowN and
// gemmNarrowT are selected with gemmKernel): alpha is folded into A first,
// each KC block accumulates from zero in one multiply-add chain, and the
// block's sum is added to C. So column j of a narrow product is
// bit-identical to column j of any wider one.
func gemmNarrow(transA Transpose, alpha float64, a, b, c *mat.Matrix, m, n, k int) {
	var acc []float64
	if transA == Trans {
		buf := mat.GetBuf(m)
		defer mat.PutBuf(buf)
		acc = buf.Data[:m]
	}
	for j := 0; j < n; j++ {
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			bcol := b.Data[pc*b.Stride+j:]
			if transA == NoTrans {
				gemmNarrowN(m, kc, alpha, a.Data[pc:], a.Stride, bcol, b.Stride, c.Data[j:], c.Stride)
				continue
			}
			for i := range acc {
				acc[i] = 0
			}
			gemmNarrowT(kc, alpha, a.Data[pc*a.Stride:], a.Stride, bcol, b.Stride, acc)
			for i, v := range acc {
				c.Data[i*c.Stride+j] += v
			}
		}
	}
}

// gemmPacked is the five-loop blocked driver around the micro-kernel. See
// pack.go for the blocking scheme.
func gemmPacked(transA, transB Transpose, alpha float64, a, b, c *mat.Matrix, m, n, k int) {
	mr, nr := gemmMR, gemmNR
	kcMax := min(k, gemmKC)
	mcMax := min(roundUp(m, mr), gemmMC)
	ncMax := min(roundUp(n, nr), gemmNC)

	bufB := mat.GetBuf(kcMax * ncMax)
	defer mat.PutBuf(bufB)
	// One buffer carries the packed A block plus the MR×NR scratch tile the
	// fringe path accumulates into.
	bufA := mat.GetBuf(mcMax*kcMax + mr*nr)
	defer mat.PutBuf(bufA)
	apack := bufA.Data[:mcMax*kcMax]
	tmp := bufA.Data[mcMax*kcMax:]

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(bufB.Data, b, transB, jc, pc, kc, nc, nr)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA(apack, a, transA, alpha, ic, pc, mc, kc, mr)
				for jr := 0; jr < nc; jr += nr {
					nj := min(nr, nc-jr)
					bp := bufB.Data[jr*kc:]
					for ir := 0; ir < mc; ir += mr {
						mi := min(mr, mc-ir)
						ap := apack[ir*kc:]
						if mi == mr && nj == nr {
							off := (ic+ir)*c.Stride + jc + jr
							gemmKernel(kc, ap, bp, c.Data[off:], c.Stride)
							continue
						}
						// Fringe tile of C: compute the full padded MR×NR
						// micro-tile into scratch, add back the live part.
						for z := range tmp {
							tmp[z] = 0
						}
						gemmKernel(kc, ap, bp, tmp, nr)
						for i := 0; i < mi; i++ {
							crow := c.Data[(ic+ir+i)*c.Stride+jc+jr:][:nj]
							trow := tmp[i*nr:]
							for j := range crow {
								crow[j] += trow[j]
							}
						}
					}
				}
			}
		}
	}
}

func opShape(m *mat.Matrix, t Transpose) (rows, cols int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// triBlock is the diagonal-block order of the blocked triangular drivers
// (Trsm/Trmm). Only a triBlock-wide band of the work runs through the
// unblocked substitution loops; everything off the diagonal is a rank-
// triBlock GEMM update through the packed micro-kernel path, so a large
// triangular solve runs at a large fraction of GEMM speed.
const triBlock = 32

// Trsm solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place: B is overwritten with X. T is triangular as
// described by uplo/diag.
//
// The solve is blocked: the triangle is partitioned into triBlock-order
// diagonal blocks solved by forward/back substitution, and the coupling
// between blocks is applied as GEMM updates, so most flops run through the
// packed micro-kernel path.
func Trsm(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trsm with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trsm Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if alpha != 1 {
		for i := 0; i < b.Rows; i++ {
			Scal(alpha, b.Row(i))
		}
	}
	if n <= triBlock {
		trsmBasic(side, uplo, trans, diag, t, b)
		return
	}
	// Effective orientation of op(T): a transposed triangle lives on the
	// opposite side of the diagonal.
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		// Block rows of X in dependency order: forward when op(T) is lower,
		// backward when upper. Each block first subtracts the coupling with
		// the already-solved blocks (one GEMM), then solves its diagonal
		// block by substitution.
		k := b.Cols
		if effLower {
			for i0 := 0; i0 < n; i0 += triBlock {
				bs := min(triBlock, n-i0)
				bi := b.View(i0, 0, bs, k)
				if i0 > 0 {
					if trans == NoTrans {
						Gemm(NoTrans, NoTrans, -1, t.View(i0, 0, bs, i0), b.View(0, 0, i0, k), 1, bi)
					} else {
						Gemm(Trans, NoTrans, -1, t.View(0, i0, i0, bs), b.View(0, 0, i0, k), 1, bi)
					}
				}
				trsmBasic(Left, uplo, trans, diag, t.View(i0, i0, bs, bs), bi)
			}
			return
		}
		for i0 := ((n - 1) / triBlock) * triBlock; i0 >= 0; i0 -= triBlock {
			bs := min(triBlock, n-i0)
			bi := b.View(i0, 0, bs, k)
			if rest := n - i0 - bs; rest > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, -1, t.View(i0, i0+bs, bs, rest), b.View(i0+bs, 0, rest, k), 1, bi)
				} else {
					Gemm(Trans, NoTrans, -1, t.View(i0+bs, i0, rest, bs), b.View(i0+bs, 0, rest, k), 1, bi)
				}
			}
			trsmBasic(Left, uplo, trans, diag, t.View(i0, i0, bs, bs), bi)
		}
		return
	}
	// Right side: column blocks of X in dependency order — forward when
	// op(T) is upper, backward when lower.
	m := b.Rows
	if !effLower {
		for j0 := 0; j0 < n; j0 += triBlock {
			bs := min(triBlock, n-j0)
			bj := b.View(0, j0, m, bs)
			if j0 > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, -1, b.View(0, 0, m, j0), t.View(0, j0, j0, bs), 1, bj)
				} else {
					Gemm(NoTrans, Trans, -1, b.View(0, 0, m, j0), t.View(j0, 0, bs, j0), 1, bj)
				}
			}
			trsmBasic(Right, uplo, trans, diag, t.View(j0, j0, bs, bs), bj)
		}
		return
	}
	for j0 := ((n - 1) / triBlock) * triBlock; j0 >= 0; j0 -= triBlock {
		bs := min(triBlock, n-j0)
		bj := b.View(0, j0, m, bs)
		if rest := n - j0 - bs; rest > 0 {
			if trans == NoTrans {
				Gemm(NoTrans, NoTrans, -1, b.View(0, j0+bs, m, rest), t.View(j0+bs, j0, rest, bs), 1, bj)
			} else {
				Gemm(NoTrans, Trans, -1, b.View(0, j0+bs, m, rest), t.View(j0, j0+bs, bs, rest), 1, bj)
			}
		}
		trsmBasic(Right, uplo, trans, diag, t.View(j0, j0, bs, bs), bj)
	}
}

// trsmBasic is the unblocked substitution kernel behind Trsm: it solves one
// diagonal block (alpha already applied by the caller).
func trsmBasic(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix) {
	n := t.Rows
	// Reduce the transposed cases to the non-transposed triangle on the
	// opposite side of the diagonal; element access goes through get().
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	if side == Left && b.Cols == 1 {
		trsmColumn(lower, trans, diag, t, b)
		return
	}
	get := func(i, j int) float64 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}

	if side == Left {
		// Row-oriented forward/back substitution over the rows of B: each
		// step updates a whole row with unit stride.
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		}
		return
	}

	// Right side: X·op(T) = B, solved one row of B at a time. For the
	// untransposed cases the substitution is expressed with T's rows so the
	// inner loops run over contiguous memory (this is the hot "Eliminate"
	// path of the LU step: A_ik ← A_ik·U⁻¹).
	if trans == NoTrans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for p := n - 1; p >= 0; p-- {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[p+1:n], row[p+1:n])
					}
				}
			}
		}
		return
	}
	// Transposed right side: op(T)[p, j] = t[j, p], so each x_j is a dot
	// product against the contiguous row j of t.
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		if lower {
			// op(T) lower ⇒ t upper: x_j from last to first.
			for j := n - 1; j >= 0; j-- {
				s := row[j] - Dot(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		} else {
			for j := 0; j < n; j++ {
				s := row[j] - Dot(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		}
	}
}

// trsmColumn is trsmBasic's Left path for a single column, with lower the
// orientation of op(T). It indexes T in place instead of through the At
// closure, and rounds exactly as the row-wise path does: each update is a
// multiply-add fused exactly when Axpy's is, skipped when the multiplier is
// zero as Axpy skips it, and the diagonal is applied as a multiplication by
// 1/t_ii as Scal applies it. So the column's bits match column j of a wider
// solve.
func trsmColumn(lower bool, trans Transpose, diag Diag, t, b *mat.Matrix) {
	n := t.Rows
	// op(T)[i, p] is t.Data[i*rs+p*cs].
	rs, cs := t.Stride, 1
	if trans == Trans {
		rs, cs = 1, t.Stride
	}
	fused := axpyKernel != nil
	x, xs := b.Data, b.Stride
	for step := 0; step < n; step++ {
		// Forward substitution for a lower op(T), backward for an upper one;
		// x_i needs the already-solved x_p for p in [lo, hi).
		i, lo, hi := step, 0, step
		if !lower {
			i, lo, hi = n-1-step, n-step, n
		}
		s := x[i*xs]
		for p := lo; p < hi; p++ {
			if m := -t.Data[i*rs+p*cs]; m != 0 {
				s = madd(fused, m, x[p*xs], s)
			}
		}
		if diag == NonUnit {
			s *= 1 / t.Data[i*t.Stride+i]
		}
		x[i*xs] = s
	}
}

// Trmm computes B = alpha·op(T)·B (Side == Left) or B = alpha·B·op(T)
// (Side == Right) in place, with T triangular.
//
// Like Trsm, the multiply is blocked: diagonal blocks of order triBlock go
// through the unblocked kernel and the off-diagonal coupling is GEMM.
func Trmm(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trmm with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trmm Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trmm Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if n <= triBlock {
		trmmBasic(side, uplo, trans, diag, alpha, t, b)
		return
	}
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		// Row block i of the result couples with the original rows on op(T)'s
		// nonzero side. Processing order keeps those rows unmodified when the
		// GEMM reads them: top-down for an upper op(T), bottom-up for lower.
		k := b.Cols
		if !effLower {
			for i0 := 0; i0 < n; i0 += triBlock {
				bs := min(triBlock, n-i0)
				bi := b.View(i0, 0, bs, k)
				rest := n - i0 - bs
				trmmBasic(Left, uplo, trans, diag, alpha, t.View(i0, i0, bs, bs), bi)
				if rest > 0 {
					if trans == NoTrans {
						Gemm(NoTrans, NoTrans, alpha, t.View(i0, i0+bs, bs, rest), b.View(i0+bs, 0, rest, k), 1, bi)
					} else {
						Gemm(Trans, NoTrans, alpha, t.View(i0+bs, i0, rest, bs), b.View(i0+bs, 0, rest, k), 1, bi)
					}
				}
			}
			return
		}
		for i0 := ((n - 1) / triBlock) * triBlock; i0 >= 0; i0 -= triBlock {
			bs := min(triBlock, n-i0)
			bi := b.View(i0, 0, bs, k)
			trmmBasic(Left, uplo, trans, diag, alpha, t.View(i0, i0, bs, bs), bi)
			if i0 > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, alpha, t.View(i0, 0, bs, i0), b.View(0, 0, i0, k), 1, bi)
				} else {
					Gemm(Trans, NoTrans, alpha, t.View(0, i0, i0, bs), b.View(0, 0, i0, k), 1, bi)
				}
			}
		}
		return
	}
	// Right side: column block j of B·op(T) couples with the original
	// columns on op(T)'s nonzero side — right-to-left for upper, left-to-
	// right for lower.
	m := b.Rows
	if !effLower {
		for j0 := ((n - 1) / triBlock) * triBlock; j0 >= 0; j0 -= triBlock {
			bs := min(triBlock, n-j0)
			bj := b.View(0, j0, m, bs)
			trmmBasic(Right, uplo, trans, diag, alpha, t.View(j0, j0, bs, bs), bj)
			if j0 > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, alpha, b.View(0, 0, m, j0), t.View(0, j0, j0, bs), 1, bj)
				} else {
					Gemm(NoTrans, Trans, alpha, b.View(0, 0, m, j0), t.View(j0, 0, bs, j0), 1, bj)
				}
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += triBlock {
		bs := min(triBlock, n-j0)
		bj := b.View(0, j0, m, bs)
		rest := n - j0 - bs
		trmmBasic(Right, uplo, trans, diag, alpha, t.View(j0, j0, bs, bs), bj)
		if rest > 0 {
			if trans == NoTrans {
				Gemm(NoTrans, NoTrans, alpha, b.View(0, j0+bs, m, rest), t.View(j0+bs, j0, rest, bs), 1, bj)
			} else {
				Gemm(NoTrans, Trans, alpha, b.View(0, j0+bs, m, rest), t.View(j0, j0+bs, bs, rest), 1, bj)
			}
		}
	}
}

// trmmBasic is the unblocked triangular-multiply kernel behind Trmm.
func trmmBasic(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float64 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	if side == Left {
		if !lower {
			// Row i of result depends on rows i..n−1: compute top-down.
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		} else {
			// Row i depends on rows 0..i: compute bottom-up.
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		}
		return
	}
	// Right side: operate on each row independently.
	if trans == Trans {
		// op(T)[p, j] = t[j, p]: each result entry is a dot product against
		// the contiguous row j of t. The in-place order follows the
		// dependency direction (ascending reads x[j:], descending x[:j]).
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot(row[:j], t.Row(j)[:j])
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
	// Untransposed: accumulate x·T into a scratch row with Axpy over t's
	// contiguous rows, then write back.
	buf := mat.GetBuf(n)
	defer mat.PutBuf(buf)
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
			if !lower {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[p:n], tmp[p:n])
				} else {
					tmp[p] += v
					Axpy(v, t.Row(p)[p+1:n], tmp[p+1:n])
				}
			} else {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[:p+1], tmp[:p+1])
				} else {
					Axpy(v, t.Row(p)[:p], tmp[:p])
					tmp[p] += v
				}
			}
		}
		if alpha == 1 {
			copy(row, tmp)
		} else {
			for j := range row {
				row[j] = alpha * tmp[j]
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
