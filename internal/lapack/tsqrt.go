package lapack

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Tsqrt (Triangle on top of Square QR) factors the stacked matrix
//
//	[ R ]        R: n×n upper triangular (only its upper triangle is read
//	[ A ]           and written — the strictly lower part may hold V data
//	                from an earlier Geqrt and is preserved)
//	             A: m×n full tile, overwritten with the square block V2 of
//	                the Householder vectors
//
// producing an updated upper triangular R and the block reflector
// Q = I − V·T·Vᵀ with V = [I; V2]. t (n×n) receives T. This is the PLASMA
// TSQRT kernel, blocked with inner block size ib = PanelIB(): each ib-wide
// strip is factored by the unblocked leaf, the trailing columns receive the
// strip's block reflector through Tsmqr's GEMM path, and the strip's T is
// merged into the full factor by the dlarft recurrence. The identity blocks
// of successive strips occupy disjoint rows, so the cross-Gram V1ᵀ·V2
// reduces to a single GEMM over A's columns.
func Tsqrt[T mat.Float](r, a, t *mat.Dense[T]) { TsqrtIB(r, a, t, PanelIB()) }

// TsqrtIB is Tsqrt with an explicit inner block size; ib <= 0 falls back to
// PanelIB().
func TsqrtIB[T mat.Float](r, a, t *mat.Dense[T], ib int) {
	n := r.Cols
	m := a.Rows
	if r.Rows != n {
		panic(fmt.Sprintf("lapack: Tsqrt needs square R, got %dx%d", r.Rows, r.Cols))
	}
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: Tsqrt A cols %d != R order %d", a.Cols, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Tsqrt T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	rbuf := mat.GetBuf[T](n)
	ref := rbuf.Data[:n]
	clear(ref)
	absMaxColumns(ref, r, 0)
	absMaxColumns(ref, a, m)
	tol := rankTol[T](n + m)
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v2 := a.View(0, j0, m, bs)
		tb := t.View(j0, j0, bs, bs)
		tsqrtUnblocked(r.View(j0, j0, bs, bs), v2, tb, ref[j0:], tol)
		// Trailing update with the strip's reflector, first-to-last order
		// ⇒ apply Qᵀ: rows j0..j0+bs of R are the C1 block, all of A's
		// trailing columns the C2 block.
		if j0+bs < n {
			Tsmqr(blas.Trans, v2, tb, r.View(j0, j0+bs, bs, n-j0-bs), a.View(0, j0+bs, m, n-j0-bs))
		}
		if j0 > 0 {
			// V1ᵀ·V2: the stacked identity parts live in disjoint row
			// ranges of the R block, so only A's columns overlap.
			y, ybuf := mat.GetMatrix[T](j0, bs)
			blas.Gemm(blas.Trans, blas.NoTrans, 1, a.View(0, 0, m, j0), v2, 0, y)
			larftMerge(t, j0, bs, y)
			mat.PutBuf(ybuf)
		}
	}
	mat.PutBuf(rbuf)
}

// tsqrtUnblocked is the column-by-column TS leaf on an (bs + m)-row
// stacked panel: r is bs×bs upper triangular, a is m×bs and is factored as
// a column-major copy, with geqrtUnblocked's rank test.
func tsqrtUnblocked[T mat.Float](r, a, t *mat.Dense[T], ref []T, tol float64) {
	n := r.Cols
	m := a.Rows
	buf := mat.GetBuf[T](m*n + n)
	defer mat.PutBuf(buf)
	cm, w := buf.Data[:m*n], buf.Data[m*n:]
	gatherColumns(cm, m, a, m)
	for j := 0; j < n; j++ {
		// Reflector from (R[j,j]; A[:, j]): the rows of R below j are
		// structurally zero in the stacked panel, so the vector part lives
		// entirely in A's column j.
		v := cm[j*m:][:m]
		beta, tau := larfgRank(r.At(j, j), v, rankThr(tol, ref[j]))
		r.Set(j, j, beta)
		// Apply H to the trailing stacked columns: row j of R, all of A.
		rrow := r.Row(j)
		for c := j + 1; c < n && tau != 0; c++ {
			applyReflector(tau, v, &rrow[c], cm[c*m:][:m])
		}
		// T column: the identity blocks of V contribute nothing across
		// distinct columns, so w[i] = V2[:, i]ᵀ·v2_j.
		for i := 0; i < j; i++ {
			w[i] = blas.Dot(cm[i*m:][:m], v)
		}
		larftColumn(t, j, tau, w[:j])
	}
	scatterColumns(a, cm, m, m)
}

// Tsmqr applies the block reflector produced by Tsqrt to the stacked pair
//
//	[ C1 ]   C1: n×k (a row-k tile; fully read/written)
//	[ C2 ]   C2: m×k
//
// computing [C1; C2] ← op(Q)·[C1; C2] with Q = I − V·T·Vᵀ, V = [I; V2].
// v2 is the A output of Tsqrt, t its T factor.
func Tsmqr[T mat.Float](trans blas.Transpose, v2, t, c1, c2 *mat.Dense[T]) {
	m, n := v2.Rows, v2.Cols
	if c1.Rows != n || c2.Rows != m || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Tsmqr shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			m, n, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	// W = C1 + V2ᵀ·C2. CopyFrom overwrites every row, so the pooled buffer
	// needs no zeroing.
	w, wbuf := mat.GetMatrix[T](n, k)
	defer mat.PutBuf(wbuf)
	w.CopyFrom(c1)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, v2, c2, 1, w)
	// W ← op(T)·W.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, 1, t.View(0, 0, n, n), w)
	// C1 −= W;  C2 −= V2·W.
	subRows(c1, w)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v2, w, 1, c2)
}
