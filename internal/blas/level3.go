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
// so steady-state calls perform no heap allocation. A C at most the kernel
// table's narrowCols wide with an untransposed B — a right-hand side's
// replay — skips packing (gemmNarrow) but rounds every element the same
// way; it runs only when the type's kernel table has narrow kernels.
func Gemm[T mat.Float](transA, transB Transpose, alpha T, a, b *mat.Dense[T], beta T, c *mat.Dense[T]) {
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
	// Past the table's measured cut, reading A once per column costs more
	// than packing it once (DESIGN.md §7).
	k := table[T]()
	if n <= k.narrowCols && transB == NoTrans {
		gemmNarrow(k, transA, alpha, a, b, c, m, n, ka)
		return
	}
	gemmPacked(k, transA, transB, alpha, a, b, c, m, n, ka)
}

// gemmNarrow computes C += alpha·op(A)·B for a narrow C without packing.
// The packed path would copy all of op(A) and run the micro-kernel over an
// NR-wide panel with n live columns; this one reads A where it lies. Every
// element of C gets the micro-kernel's arithmetic exactly (the table's
// narrowN and narrowT round like its gemm): alpha is folded into A first,
// each KC block accumulates from zero in one multiply-add chain, and the
// block's sum is added to C. So column j of a narrow product is
// bit-identical to column j of any wider one.
func gemmNarrow[T mat.Float](kt *kernels[T], transA Transpose, alpha T, a, b, c *mat.Dense[T], m, n, k int) {
	var acc []T
	if transA == Trans {
		buf := mat.GetBuf[T](m)
		defer mat.PutBuf(buf)
		acc = buf.Data[:m]
	}
	for j := 0; j < n; j++ {
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			bcol := b.Data[pc*b.Stride+j:]
			if transA == NoTrans {
				kt.narrowN(m, kc, alpha, a.Data[pc:], a.Stride, bcol, b.Stride, c.Data[j:], c.Stride)
				continue
			}
			for i := range acc {
				acc[i] = 0
			}
			kt.narrowT(kc, alpha, a.Data[pc*a.Stride:], a.Stride, bcol, b.Stride, acc)
			for i, v := range acc {
				c.Data[i*c.Stride+j] += v
			}
		}
	}
}

// gemmPacked is the five-loop blocked driver around the micro-kernel. See
// pack.go for the blocking scheme.
func gemmPacked[T mat.Float](kt *kernels[T], transA, transB Transpose, alpha T, a, b, c *mat.Dense[T], m, n, k int) {
	mr, nr := kt.mr, kt.nr
	kcMax := min(k, gemmKC)
	mcMax := min(roundUp(m, mr), gemmMC)
	ncMax := min(roundUp(n, nr), gemmNC)

	bufB := mat.GetBuf[T](kcMax * ncMax)
	defer mat.PutBuf(bufB)
	// One buffer carries the packed A block plus the MR×NR scratch tile the
	// fringe path accumulates into.
	bufA := mat.GetBuf[T](mcMax*kcMax + mr*nr)
	defer mat.PutBuf(bufA)
	apack := bufA.Data[:mcMax*kcMax]
	tmp := bufA.Data[mcMax*kcMax:]

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(kt, bufB.Data, b, transB, jc, pc, kc, nc)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA(kt, apack, a, transA, alpha, ic, pc, mc, kc)
				for jr := 0; jr < nc; jr += nr {
					nj := min(nr, nc-jr)
					bp := bufB.Data[jr*kc:]
					for ir := 0; ir < mc; ir += mr {
						mi := min(mr, mc-ir)
						microTile(kt, kc, apack[ir*kc:], bp, c.Data[(ic+ir)*c.Stride+jc+jr:], c.Stride, mi, nj, tmp)
					}
				}
			}
		}
	}
}

// microTile adds the product of the packed micro-panels ap and bp over kc
// to the mi×nj tile of C at c (rows ldc apart). A full MR×NR tile goes
// straight through the micro-kernel; a fringe tile computes the padded
// micro-tile into the MR×NR scratch tmp and adds back its live part.
func microTile[T mat.Float](kt *kernels[T], kc int, ap, bp, c []T, ldc, mi, nj int, tmp []T) {
	if mi == kt.mr && nj == kt.nr {
		kt.gemm(kc, ap, bp, c, ldc)
		return
	}
	clear(tmp)
	kt.gemm(kc, ap, bp, tmp, kt.nr)
	for i := 0; i < mi; i++ {
		crow := c[i*ldc:][:nj]
		trow := tmp[i*kt.nr:]
		for j := range crow {
			crow[j] += trow[j]
		}
	}
}

func opShape[T mat.Float](m *mat.Dense[T], t Transpose) (rows, cols int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// Trsm solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place: B is overwritten with X. T is triangular as
// described by uplo/diag.
//
// Both sides are one packed solve on the GEMM micro-kernel (trsmPacked):
// the Right side is the Left solve op(T)ᵀ·Xᵀ = alpha·Bᵀ, and packing
// absorbs the transposes. One right-hand side — a single column on the
// Left, a single row on the Right — takes trsmColumn where the type's
// kernel table has narrow kernels; it rounds every element the same way.
func Trsm[T mat.Float](side Side, uplo Uplo, trans Transpose, diag Diag, alpha T, t, b *mat.Dense[T]) {
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
	// Effective orientation of op(T): a transposed triangle lives on the
	// opposite side of the diagonal.
	lower := (uplo == Lower) != (trans == Trans)
	w, xs := b.Cols, b.Stride
	if side == Right {
		// op(T)ᵀ is op(T) with the transpose flipped, so it lies on the
		// other side of the diagonal; Bᵀ has B's rows as its columns.
		lower, trans, w, xs = !lower, flip(trans), b.Rows, 1
	}
	if n == 0 || w == 0 {
		return
	}
	k := table[T]()
	if w == 1 && k.narrowN != nil {
		trsmColumn(k, lower, trans, diag, t, b.Data, xs)
		return
	}
	trsmPacked(k, side, lower, trans, diag, t, b)
}

// The packed solve cuts op(T)'s rows into MR-row blocks, solved in
// dependency order (trsmBlock): top-down for a lower op(T), bottom-up for
// an upper one, with the fringe block at the bottom either way. A block's
// rows first subtract their products with the rows solved before the block
// (trsmSolved), one micro-kernel chain from zero per KC block of them, and
// then the block solves its diagonal square by substitution (trsmDiag).
// trsmPacked and trsmColumn share these functions, which is what makes
// their roundings agree.

// trsmBlock returns the q-th MR-row block [i0, i0+rows) of op(T) in
// dependency order.
func trsmBlock(lower bool, n, mr, q int) (i0, rows int) {
	i0 = q * mr
	if !lower {
		i0 = ((n-1)/mr - q) * mr
	}
	return i0, min(mr, n-i0)
}

// trsmSolved returns the rows [lo, hi) solved before block [i0, i0+rows),
// which are the block rows' stored columns of op(T) off its diagonal
// square.
func trsmSolved(lower bool, n, i0, rows int) (lo, hi int) {
	if lower {
		return 0, i0
	}
	return i0 + rows, n
}

// trsmDiag solves rows [i0, i0+rows) of X, held w wide and ld apart in x,
// against op(T)'s diagonal square there (op(T)[i, p] is t[i*rs+p*cs]) by
// substitution in dependency order: each row subtracts the block rows
// solved before it in increasing order, through Axpy, which skips a zero
// multiplier; a non-unit row is then multiplied by 1/t_ii. One column
// applies Axpy's arithmetic (madd, fused as Axpy fuses) without the call,
// which would cost the one-column solve more than its multiply-adds.
func trsmDiag[T mat.Float](t []T, rs, cs int, lower bool, diag Diag, i0, rows int, x []T, w, ld int) {
	fused := table[T]().axpy != nil
	for s := 0; s < rows; s++ {
		r, q0, q1 := s, 0, s
		if !lower {
			r = rows - 1 - s
			q0, q1 = r+1, rows
		}
		i, xr := i0+r, x[r*ld:][:w]
		for q := q0; q < q1; q++ {
			m := -t[i*rs+(i0+q)*cs]
			if w > 1 {
				Axpy(m, x[q*ld:][:w], xr)
			} else if m != 0 {
				xr[0] = madd(fused, m, x[q*ld], xr[0])
			}
		}
		if diag == NonUnit {
			Scal(1/t[i*rs+i*cs], xr)
		}
	}
}

// trsmPacked is the Left solve op(T)·X = B through the packed micro-kernel,
// in place in B, or the Right solve as the Left one on a transposed copy of
// B. Each row block in dependency order packs its rows of op(T) over the
// solved columns, scaled by −1, into one MR-tall micro-panel; runs the
// micro-kernel with it over the block's rows of X, against the solved rows,
// writing straight into X; solves its diagonal square along whole rows;
// and packs its solved rows into NR-wide micro-panels, the micro-kernel's
// B operand for the blocks after it.
func trsmPacked[T mat.Float](kt *kernels[T], side Side, lower bool, trans Transpose, diag Diag, t, b *mat.Dense[T]) {
	n, mr, nr := t.Rows, kt.mr, kt.nr
	rs, cs := t.Stride, 1
	if trans == Trans {
		rs, cs = 1, t.Stride
	}
	w, x, ld := b.Cols, b.Data, b.Stride
	if side == Right {
		w = b.Rows
		xt := mat.GetBuf[T](n * w)
		defer mat.PutBuf(xt)
		x, ld = xt.Data, w
		transpose(x, ld, b.Data, b.Stride, w, n)
	}
	buf := mat.GetBuf[T](mr*n + n*roundUp(w, nr) + mr*nr)
	defer mat.PutBuf(buf)
	// panel holds the block's micro-panel of op(T), column p at
	// panel[(p-lo)*mr:]; bp the solved rows of X, the micro-panel of
	// columns [jr, jr+nr) at bp[jr*n:] with row p at [p*nr:]; tmp is
	// microTile's scratch tile.
	panel, bp, tmp := buf.Data[:mr*n], buf.Data[mr*n:len(buf.Data)-mr*nr], buf.Data[len(buf.Data)-mr*nr:]
	for q := 0; q*mr < n; q++ {
		i0, rows := trsmBlock(lower, n, mr, q)
		lo, hi := trsmSolved(lower, n, i0, rows)
		xi := x[i0*ld:]
		if hi > lo {
			packA(kt, panel, t, trans, -1, i0, lo, rows, hi-lo)
			for jr := 0; jr < w; jr += nr {
				for k0 := lo; k0 < hi; k0 += gemmKC {
					microTile(kt, min(gemmKC, hi-k0), panel[(k0-lo)*mr:], bp[jr*n+k0*nr:], xi[jr:], ld, rows, min(nr, w-jr), tmp)
				}
			}
		}
		trsmDiag(t.Data, rs, cs, lower, diag, i0, rows, xi, w, ld)
		if (q+1)*mr >= n {
			break
		}
		for i := i0; i < i0+rows; i++ {
			xr := x[i*ld:][:w]
			for jr := 0; jr < w; jr += nr {
				d := bp[jr*n+i*nr:][:nr]
				clear(d[copy(d, xr[jr:]):])
			}
		}
	}
	if side == Right {
		transpose(b.Data, b.Stride, x, ld, n, w)
	}
}

// transpose writes the transpose of the rows×cols matrix src (rows lds
// apart) to dst (rows ldd apart). It reads eight rows side by side, so each
// row of dst takes eight contiguous elements at a time. At 192×192 that is
// about 4× (float64) and 2× (float32) as fast as storing one element per
// row of dst.
func transpose[T mat.Float](dst []T, ldd int, src []T, lds, rows, cols int) {
	i := 0
	for ; i+8 <= rows; i += 8 {
		s0 := src[i*lds:][:cols]
		s1 := src[(i+1)*lds:][:cols]
		s2 := src[(i+2)*lds:][:cols]
		s3 := src[(i+3)*lds:][:cols]
		s4 := src[(i+4)*lds:][:cols]
		s5 := src[(i+5)*lds:][:cols]
		s6 := src[(i+6)*lds:][:cols]
		s7 := src[(i+7)*lds:][:cols]
		for j := range s0 {
			d := dst[j*ldd+i:][:8]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0[j], s1[j], s2[j], s3[j], s4[j], s5[j], s6[j], s7[j]
		}
	}
	for ; i < rows; i++ {
		for j, v := range src[i*lds:][:cols] {
			dst[j*ldd+i] = v
		}
	}
}

// trsmColumn is the solve of one right-hand side x (elements xs apart),
// with lower the orientation of op(T). It walks trsmPacked's blocks
// without packing: each block's rows take their products with the rows
// solved before it through the table's narrow kernels, which round as the
// micro-kernel does (one chain from zero per KC block, added to the
// element), and then trsmDiag on the one column. So a column's bits match
// column j of a wider solve. It exists for speed: the packed path would
// pack all of op(T) and run the micro-kernel over an NR-wide panel with one
// live column, which at nb = 64–192 takes 1.5–2.2× as long.
func trsmColumn[T mat.Float](kt *kernels[T], lower bool, trans Transpose, diag Diag, t *mat.Dense[T], x []T, xs int) {
	n, mr := t.Rows, kt.mr
	// op(T)[i, p] is t.Data[i*rs+p*cs].
	rs, cs := t.Stride, 1
	if trans == Trans {
		rs, cs = 1, t.Stride
	}
	buf := mat.GetBuf[T](mr)
	defer mat.PutBuf(buf)
	for q := 0; q*mr < n; q++ {
		i0, rows := trsmBlock(lower, n, mr, q)
		lo, hi := trsmSolved(lower, n, i0, rows)
		for k0 := lo; k0 < hi; k0 += gemmKC {
			kc := min(gemmKC, hi-k0)
			if trans == NoTrans {
				kt.narrowN(rows, kc, -1, t.Data[i0*rs+k0:], rs, x[k0*xs:], xs, x[i0*xs:], xs)
				continue
			}
			// The block's rows of op(T) are columns of t: narrowT runs
			// their chains side by side in acc.
			acc := buf.Data[:rows]
			clear(acc)
			kt.narrowT(kc, -1, t.Data[k0*cs+i0:], cs, x[k0*xs:], xs, acc)
			for r, v := range acc {
				x[(i0+r)*xs] += v
			}
		}
		trsmDiag(t.Data, rs, cs, lower, diag, i0, rows, x[i0*xs:], 1, xs)
	}
}

// Trmm computes B = alpha·op(T)·B (Side == Left) or B = alpha·B·op(T)
// (Side == Right) in place, with T triangular.
//
// Both sides are one packed triangular multiply on the GEMM micro-kernel
// (trmmPacked): the Right side is the Left multiply op(T)ᵀ·Bᵀ on a
// transposed copy of B, as in Trsm. B at most trmmNarrowCols columns wide
// on the Left, or rows tall on the Right, takes trmmNarrow where the type's
// kernel table has narrow kernels; it rounds every element the same way.
func Trmm[T mat.Float](side Side, uplo Uplo, trans Transpose, diag Diag, alpha T, t, b *mat.Dense[T]) {
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
	upper := (uplo == Upper) != (trans == Trans)
	w := b.Cols
	if side == Right {
		// op(T)ᵀ is op(T) with the transpose flipped, so it lies on the
		// other side of the diagonal; Bᵀ has B's rows as its columns.
		upper, trans, w = !upper, flip(trans), b.Rows
	}
	if n == 0 || w == 0 {
		return
	}
	x := b
	if side == Right {
		buf := mat.GetBuf[T](n * w)
		defer mat.PutBuf(buf)
		x = &mat.Dense[T]{Rows: n, Cols: w, Stride: w, Data: buf.Data}
		transpose(x.Data, w, b.Data, b.Stride, w, n)
	}
	if k := table[T](); w <= trmmNarrowCols && k.narrowN != nil {
		trmmNarrow(k, upper, trans, diag, alpha, t, x)
	} else {
		trmmPacked(k, upper, trans, diag, alpha, t, x)
	}
	if side == Right {
		transpose(b.Data, b.Stride, x.Data, w, n, w)
	}
}

// flip returns the other transpose.
func flip(t Transpose) Transpose {
	if t == Trans {
		return NoTrans
	}
	return Trans
}

// The Left multiply B = alpha·op(T)·B runs GEMM's loop nest with the
// product written over its own operand. Its k dimension is cut into KC
// blocks, consumed in the order trmmBlock gives: block [pc, pc+kc) is the
// last to read B's rows [pc, pc+kc), so it packs them, zeroes them, and from
// then on they accumulate the product. The rows [r0, r1) a block reaches
// are cut into MR-tall micro-panels from r0 (gemmMC is a multiple of every
// MR, so the MC blocking moves no panel boundary). Each micro-panel runs
// the micro-kernel only over trmmPanelCols, the columns of the block where
// its rows have stored entries. trmmPacked and trmmNarrow share the
// functions below, which is what makes their roundings agree.

// trmmBlock returns the q-th KC block [pc, pc+kc) of the Left multiply and
// the product rows [r0, r1) it reaches: top-down reaching the rows above
// for an upper op(T), bottom-up reaching the rows below for a lower one.
func trmmBlock(upper bool, n, q int) (pc, kc, r0, r1 int) {
	if upper {
		pc = q * gemmKC
		kc = min(gemmKC, n-pc)
		return pc, kc, 0, pc + kc
	}
	pc = ((n-1)/gemmKC - q) * gemmKC
	return pc, min(gemmKC, n-pc), pc, n
}

// trmmPanelCols returns the columns [c0, c1) of block [pc, pc+kc) over
// which the micro-panel of op(T) rows [i0, i0+rows) runs: from its first
// row's diagonal on for an upper op(T), up to its last row's for a lower
// one. Inside [i0, i0+rows) the panel crosses the diagonal; every other
// column of the range is stored in all of its rows.
func trmmPanelCols(upper bool, i0, rows, pc, kc int) (c0, c1 int) {
	if upper {
		return max(pc, i0), pc + kc
	}
	return pc, min(pc+kc, i0+rows)
}

// trmmDiagCols returns the part [d0, d1) of the panel's columns [c0, c1)
// where it crosses the diagonal.
func trmmDiagCols(i0, rows, c0, c1 int) (d0, d1 int) {
	return min(max(i0, c0), c1), min(max(i0+rows, c0), c1)
}

// trmmEntry returns the value a micro-panel holds, before scaling by
// alpha, for op(T)[i, p] (t[i*rs+p*cs]) at a column where the panel crosses
// the diagonal: the entry inside the stored triangle, 1 on a unit diagonal,
// and zero outside the triangle, which is never read.
func trmmEntry[T mat.Float](t []T, rs, cs int, upper bool, diag Diag, i, p int) T {
	switch {
	case p == i && diag == Unit:
		return 1
	case p == i || (p > i) == upper:
		return t[i*rs+p*cs]
	}
	return 0
}

// trmmPacked is the Left multiply through the packed micro-kernel. B is
// packed one KC×NC block at a time into one pooled buffer, before the block
// overwrites those rows; op(T) is packed, scaled by alpha, one micro-panel
// column range at a time.
func trmmPacked[T mat.Float](kt *kernels[T], upper bool, trans Transpose, diag Diag, alpha T, t, b *mat.Dense[T]) {
	n, w := t.Rows, b.Cols
	mr, nr := kt.mr, kt.nr
	rs, cs := t.Stride, 1
	if trans == Trans {
		rs, cs = 1, t.Stride
	}
	kcMax := min(n, gemmKC)
	mcMax := min(roundUp(n, mr), gemmMC)
	ncMax := min(roundUp(w, nr), gemmNC)
	bufB := mat.GetBuf[T](kcMax * ncMax)
	defer mat.PutBuf(bufB)
	bufA := mat.GetBuf[T](mcMax*kcMax + mr*nr)
	defer mat.PutBuf(bufA)
	apack := bufA.Data[:mcMax*kcMax]
	tmp := bufA.Data[mcMax*kcMax:]

	for jc := 0; jc < w; jc += gemmNC {
		nc := min(gemmNC, w-jc)
		for q := 0; q*gemmKC < n; q++ {
			pc, kc, r0, r1 := trmmBlock(upper, n, q)
			packB(kt, bufB.Data, b, NoTrans, jc, pc, kc, nc)
			for i := pc; i < pc+kc; i++ {
				clear(b.Data[i*b.Stride+jc:][:nc])
			}
			for ic := r0; ic < r1; ic += gemmMC {
				mc := min(gemmMC, r1-ic)
				for ir := 0; ir < mc; ir += mr {
					i0, rows := ic+ir, min(mr, mc-ir)
					c0, c1 := trmmPanelCols(upper, i0, rows, pc, kc)
					d0, d1 := trmmDiagCols(i0, rows, c0, c1)
					// Column p of the panel lands at panel[(p-pc)*mr:].
					panel := apack[ir*kc:]
					if d0 > c0 {
						packA(kt, panel[(c0-pc)*mr:], t, trans, alpha, i0, c0, rows, d0-c0)
					}
					for p := d0; p < d1; p++ {
						d := panel[(p-pc)*mr:][:mr]
						for i := range d {
							d[i] = 0
							if i < rows {
								d[i] = alpha * trmmEntry(t.Data, rs, cs, upper, diag, i0+i, p)
							}
						}
					}
					if c1 > d1 {
						packA(kt, panel[(d1-pc)*mr:], t, trans, alpha, i0, d1, rows, c1-d1)
					}
				}
				for jr := 0; jr < nc; jr += nr {
					nj := min(nr, nc-jr)
					for ir := 0; ir < mc; ir += mr {
						i0, mi := ic+ir, min(mr, mc-ir)
						c0, c1 := trmmPanelCols(upper, i0, mi, pc, kc)
						ap := apack[ir*kc+(c0-pc)*mr:]
						bp := bufB.Data[jr*kc+(c0-pc)*nr:]
						microTile(kt, c1-c0, ap, bp, b.Data[i0*b.Stride+jc+jr:], b.Stride, mi, nj, tmp)
					}
				}
			}
		}
	}
}

// trmmNarrowCols is the widest B that takes trmmNarrow. The packed path
// costs about the same for any B up to NR wide, since it pads B to a full
// micro-panel; the narrow one costs a pass over T per column. At n = 64
// and 192 narrow takes 0.57–0.89× the packed time at one column, 0.77–1.40×
// at two and 0.97–1.83× at three, on the 6×16 AVX-512 and 6×8 AVX2 tables
// alike: one column is the one-right-hand-side replay, and two is a wash.
const trmmNarrowCols = 2

// trmmNarrow is the Left multiply for a B at most trmmNarrowCols wide,
// without packing B. It walks trmmPacked's blocks and micro-panels and
// gives every element of the product the micro-kernel's arithmetic over the
// same column range, through the table's narrow kernels, which fold alpha
// in as the packing does: one chain from zero per row and KC block, added
// to the element. Where the panel crosses the diagonal the kernels read a
// copy holding the panel's zeros and unit diagonal. So column j of a narrow
// product is bit-identical to column j of any wider one.
func trmmNarrow[T mat.Float](kt *kernels[T], upper bool, trans Transpose, diag Diag, alpha T, t, b *mat.Dense[T]) {
	n, w, mr := t.Rows, b.Cols, kt.mr
	rs, cs := t.Stride, 1
	if trans == Trans {
		rs, cs = 1, t.Stride
	}
	buf := mat.GetBuf[T](n*w + mr + mr*min(n, gemmKC))
	defer mat.PutBuf(buf)
	// x holds B's columns as they were on entry, column j at x[j*n:].
	x, accBuf, scratch := buf.Data[:n*w], buf.Data[n*w:n*w+mr], buf.Data[n*w+mr:]
	for i := 0; i < n; i++ {
		for j, v := range b.Data[i*b.Stride:][:w] {
			x[j*n+i] = v
		}
	}
	for q := 0; q*gemmKC < n; q++ {
		pc, kc, r0, r1 := trmmBlock(upper, n, q)
		for i := pc; i < pc+kc; i++ {
			clear(b.Data[i*b.Stride:][:w])
		}
		for i0 := r0; i0 < r1; i0 += mr {
			rows := min(mr, r1-i0)
			c0, c1 := trmmPanelCols(upper, i0, rows, pc, kc)
			d0, d1 := trmmDiagCols(i0, rows, c0, c1)
			if trans == NoTrans {
				// The panel's rows are rows of T: copy them, and run
				// narrowN's chain along each.
				k := c1 - c0
				a := scratch[:rows*k]
				for r := 0; r < rows; r++ {
					i, ar := i0+r, a[r*k:][:k]
					copy(ar[:d0-c0], t.Data[i*rs+c0:])
					for p := d0; p < d1; p++ {
						ar[p-c0] = trmmEntry(t.Data, rs, cs, upper, diag, i, p)
					}
					copy(ar[d1-c0:], t.Data[i*rs+d1:])
				}
				for j := 0; j < w; j++ {
					kt.narrowN(rows, k, alpha, a, k, x[j*n+c0:], 1, b.Data[i0*b.Stride+j:], b.Stride)
				}
				continue
			}
			// The panel's columns are rows of T: narrowT continues the
			// rows' chains in acc, reading T where it lies except across
			// the diagonal.
			sq := scratch[:(d1-d0)*rows]
			for p := d0; p < d1; p++ {
				for r := 0; r < rows; r++ {
					sq[(p-d0)*rows+r] = trmmEntry(t.Data, rs, cs, upper, diag, i0+r, p)
				}
			}
			acc := accBuf[:rows]
			for j := 0; j < w; j++ {
				xj := x[j*n:]
				clear(acc)
				if d0 > c0 {
					kt.narrowT(d0-c0, alpha, t.Data[c0*cs+i0:], cs, xj[c0:], 1, acc)
				}
				if d1 > d0 {
					kt.narrowT(d1-d0, alpha, sq, rows, xj[d0:], 1, acc)
				}
				if c1 > d1 {
					kt.narrowT(c1-d1, alpha, t.Data[d1*cs+i0:], cs, xj[d1:], 1, acc)
				}
				for r, v := range acc {
					b.Data[(i0+r)*b.Stride+j] += v
				}
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

// Gemm32R is Gemm on float32 matrices with float64 scalars, as the
// benchmark module's isolated probes call it.
func Gemm32R(transA, transB Transpose, alpha float64, a, b *mat.Matrix32, beta float64, c *mat.Matrix32) {
	Gemm(transA, transB, float32(alpha), a, b, float32(beta), c)
}

// Trsm32R is Trsm on float32 matrices with a float64 scalar, as the
// benchmark module's isolated probes call it.
func Trsm32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix32) {
	Trsm(side, uplo, trans, diag, float32(alpha), t, b)
}
