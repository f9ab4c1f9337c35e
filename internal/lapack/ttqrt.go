package lapack

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Ttqrt (Triangle on top of Triangle QR) factors the stacked matrix
//
//	[ R1 ]    R1: n×n upper triangular, updated in place (upper part only)
//	[ R2 ]    R2: n×n upper triangular, overwritten (upper part only) with
//	              the upper triangular block V2 of the Householder vectors
//
// producing Q = I − V·T·Vᵀ with V = [I; V2]. Strictly lower parts of both
// tiles are never touched: they may carry V data from earlier kernels, as in
// PLASMA. t (n×n) receives T. Used by the reduction trees of the HQR step to
// merge two domain-local R factors.
//
// Blocked with inner block size ib = PanelIB(): each ib-wide strip of
// columns (whose V2 part is a trapezoid — dense above row j0, triangular
// on the diagonal block) is factored by the unblocked leaf, the trailing
// columns receive the strip's block reflector through TRMM/GEMM, and the
// strip's T is merged by the dlarft recurrence.
func Ttqrt[T mat.Float](r1, r2, t *mat.Dense[T]) { TtqrtIB(r1, r2, t, PanelIB()) }

// TtqrtIB is Ttqrt with an explicit inner block size; ib <= 0 falls back to
// PanelIB().
func TtqrtIB[T mat.Float](r1, r2, t *mat.Dense[T], ib int) {
	n := r1.Cols
	if r1.Rows != n || r2.Rows != n || r2.Cols != n {
		panic(fmt.Sprintf("lapack: Ttqrt needs square tiles, got %dx%d and %dx%d",
			r1.Rows, r1.Cols, r2.Rows, r2.Cols))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Ttqrt T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	rbuf := mat.GetBuf[T](n)
	ref := rbuf.Data[:n]
	clear(ref)
	absMaxColumns(ref, r1, 0)
	absMaxColumns(ref, r2, 0)
	tol := rankTol[T](2 * n)
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		rest := n - j0 - bs
		tb := t.View(j0, j0, bs, bs)
		// The strip's V2 is r2[0:j0+bs, j0:j0+bs): a dense j0×bs block D on
		// top of a bs×bs upper triangle.
		ttqrtUnblocked(r1.View(j0, j0, bs, bs), r2.View(0, j0, j0+bs, bs), tb, j0, ref[j0:], tol)
		// Trailing update: the strip's Qᵀ (first-to-last generation order)
		// on rows j0..j0+bs of R1 and rows 0..j0+bs of R2.
		if rest > 0 {
			ttStrip(blas.Trans, r2, tb, j0, bs, r1.View(j0, j0+bs, bs, rest), r2.View(0, j0+bs, j0+bs, rest))
		}
		if j0 > 0 {
			// Cross-Gram V1ᵀ·V2: V1 (the previous columns of V2-space) is
			// zero below row j0, so only D overlaps — and V1's nonzero part
			// is the upper triangle r2[0:j0, 0:j0).
			y, ybuf := mat.GetMatrix[T](j0, bs)
			y.CopyFrom(r2.View(0, j0, j0, bs))
			blas.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, r2.View(0, 0, j0, j0), y)
			larftMerge(t, j0, bs, y)
			mat.PutBuf(ybuf)
		}
	}
	mat.PutBuf(rbuf)
}

// ttStrip applies op(Q_J) for the column strip J = [j0, j0+bs) of a TT
// factor, Q_J = I − V_J·T_J·V_Jᵀ, to the rows it touches: c1 is the bs
// rows J of the top tile, c2 rows 0..j0+bs of the bottom one, and tb is
// T_J. V_J is the identity on the top tile's rows J over v2's columns J,
// which are nonzero only in rows 0..j0+bs: a dense j0×bs block D on a
// bs×bs upper triangle. D takes GEMM and the triangle TRMM on W, so v2's
// strictly lower storage is never read. TTQRT's trailing update and Ttmqr
// share this body.
func ttStrip[T mat.Float](trans blas.Transpose, v2, tb *mat.Dense[T], j0, bs int, c1, c2 *mat.Dense[T]) {
	k := c1.Cols
	tri := v2.View(j0, j0, bs, bs)
	c2bot := c2.View(j0, 0, bs, k)
	// W = Triᵀ·C2bot + C1 + Dᵀ·C2top.
	w, wbuf := mat.GetMatrix[T](bs, k)
	defer mat.PutBuf(wbuf)
	w.CopyFrom(c2bot)
	blas.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tri, w)
	addRows(w, c1)
	if j0 > 0 {
		blas.Gemm(blas.Trans, blas.NoTrans, 1, v2.View(0, j0, j0, bs), c2.View(0, 0, j0, k), 1, w)
	}
	// W ← op(T_J)·W.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, 1, tb, w)
	// C1 −= W;  C2top −= D·W;  C2bot −= Tri·W, with Tri applied to W in
	// place.
	subRows(c1, w)
	if j0 > 0 {
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v2.View(0, j0, j0, bs), w, 1, c2.View(0, 0, j0, k))
	}
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tri, w)
	subRows(c2bot, w)
}

// ttqrtUnblocked is the column-by-column TT leaf. r1 is bs×bs upper
// triangular; r2 holds the strip's V2 part as an (off+bs)×bs trapezoid:
// local column j's vector part occupies rows 0..off+j (dense above row
// off, triangular within the diagonal block). off == 0 recovers the
// classical square case. The leaf factors a column-major copy of the
// trapezoid alone, so r2's strictly lower storage is neither read nor
// written. It makes geqrtUnblocked's rank test.
func ttqrtUnblocked[T mat.Float](r1, r2, t *mat.Dense[T], off int, ref []T, tol float64) {
	n := r1.Cols
	ld := off + n
	buf := mat.GetBuf[T](ld*n + n)
	defer mat.PutBuf(buf)
	cm, w := buf.Data[:ld*n], buf.Data[ld*n:]
	gatherColumns(cm, ld, r2, off)
	for j := 0; j < n; j++ {
		// Column j of the stacked panel has nonzeros at R1[j,j] and
		// R2[0..off+j, j] only.
		v := cm[j*ld:][:off+j+1]
		beta, tau := larfgRank(r1.At(j, j), v, rankThr(tol, ref[j]))
		r1.Set(j, j, beta)
		// Apply H to the trailing columns: row j of R1, rows 0..off+j of R2.
		r1row := r1.Row(j)
		for c := j + 1; c < n && tau != 0; c++ {
			applyReflector(tau, v, &r1row[c], cm[c*ld:][:len(v)])
		}
		// T column: w[i] = V2[:, i]ᵀ·v2_j over the overlap rows 0..off+i.
		for i := 0; i < j; i++ {
			w[i] = blas.Dot(cm[i*ld:][:off+i+1], v[:off+i+1])
		}
		larftColumn(t, j, tau, w[:j])
	}
	scatterColumns(r2, cm, ld, off)
}

// Ttmqr applies the block reflector produced by Ttqrt to the stacked pair
// [C1; C2] (both n-row tiles of width k, fully read/written):
//
//	[C1; C2] ← op(Q)·[C1; C2],  Q = I − [I; V2]·T·[I; V2]ᵀ
//
// v2 holds V2 in its upper triangle (lower part ignored), t the T factor.
//
// Q is the product Q_0·Q_1⋯ of its ttmqrStrip-wide column strips' block
// reflectors, and each Q_J's T factor is T's diagonal block on J (the
// dlarft recurrence builds T column by column), so Ttmqr applies the
// strips one after another through ttStrip: first to last for Qᵀ, last to
// first for Q. Strip J's reflectors reach only rows 0..J's end of C2, so
// this skips the zeros of V2 and of T's coupling blocks: about
// 2n²k + n·k·ttmqrStrip flops, where the full T costs 3n²k. (The trick of
// Unmqr does not carry over: here the equivalent of Y is V2·Tᵀ, which is
// dense.)
func Ttmqr[T mat.Float](trans blas.Transpose, v2, t, c1, c2 *mat.Dense[T]) {
	n := v2.Rows
	if v2.Cols != n || c1.Rows != n || c2.Rows != n || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Ttmqr shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			v2.Rows, v2.Cols, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	strip := func(j0 int) {
		bs := min(ttmqrStrip, n-j0)
		ttStrip(trans, v2, t.View(j0, j0, bs, bs), j0, bs, c1.View(j0, 0, bs, k), c2.View(0, 0, j0+bs, k))
	}
	if trans == blas.Trans {
		for j0 := 0; j0 < n; j0 += ttmqrStrip {
			strip(j0)
		}
		return
	}
	for j0 := (n - 1) / ttmqrStrip * ttmqrStrip; j0 >= 0; j0 -= ttmqrStrip {
		strip(j0)
	}
}

// ttmqrStrip is Ttmqr's strip width.
const ttmqrStrip = 48
