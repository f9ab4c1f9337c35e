package lapack

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Geqrt computes the QR factorization of an m×n tile (m ≥ n) in compact WY
// form: A = Q·R with Q = I − V·T·Vᵀ. On return the upper triangle of a holds
// R, the strictly lower trapezoid holds the Householder vectors V (unit
// diagonal implicit), and t (n×n) holds the upper triangular block reflector
// factor T. This is the PLASMA GEQRT kernel.
//
// The factorization is blocked with inner block size ib = PanelIB():
// reflectors are generated an ib-wide strip at a time by the unblocked
// leaf, each strip's block reflector is applied to the trailing columns
// through the TRMM/GEMM path (Unmqr), and the strip's T block is merged
// into the full n×n T by the dlarft recurrence — so the output contract
// (full T, usable by Unmqr and the serialized-factor replay) is unchanged
// from the unblocked kernel.
func Geqrt[T mat.Float](a, t *mat.Dense[T]) { GeqrtIB(a, t, PanelIB()) }

// GeqrtIB is Geqrt with an explicit inner block size; ib <= 0 falls back to
// PanelIB().
func GeqrtIB[T mat.Float](a, t *mat.Dense[T], ib int) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Geqrt requires m >= n, got %dx%d", m, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Geqrt T too small: %dx%d for n=%d", t.Rows, t.Cols, n))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		geqrtUnblocked(a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v := a.View(j0, j0, m-j0, bs)
		tb := t.View(j0, j0, bs, bs)
		geqrtUnblocked(v, tb)
		// Trailing update: the strip's reflectors were generated first-to-
		// last, so the trailing columns receive Qᵀ = I − V·Tᵀ·Vᵀ — exactly
		// Unmqr with trans, through the packed TRMM/GEMM path.
		if j0+bs < n {
			Unmqr(blas.Trans, v, tb, a.View(j0, j0+bs, m-j0, n-j0-bs))
		}
		if j0 > 0 {
			mergeGeqrtT(a, t, j0, bs)
		}
	}
}

// mergeGeqrtT joins the [j0,j0+bs) strip's T block into the full factor:
// it forms the cross-Gram Y = V1ᵀ·V2 of the previous reflectors against the
// strip's (V2 materialized with its implicit unit diagonal) and hands it to
// the dlarft recurrence.
func mergeGeqrtT[T mat.Float](a, t *mat.Dense[T], j0, bs int) {
	m := a.Rows
	// V2 lives in a[j0:m, j0:j0+bs): unit lower trapezoidal, stored mixed
	// with R's rows. Materialize it so one GEMM forms the Gram block.
	v2, v2buf := mat.GetMatrix[T](m-j0, bs)
	defer mat.PutBuf(v2buf)
	for i := 0; i < m-j0; i++ {
		dst := v2.Row(i)
		src := a.Row(j0 + i)[j0 : j0+bs]
		for c := range dst {
			switch {
			case i < c:
				dst[c] = 0
			case i == c:
				dst[c] = 1
			default:
				dst[c] = src[c]
			}
		}
	}
	// V1's columns are zero above row j0, so the Gram needs only its dense
	// lower part.
	y, ybuf := mat.GetMatrix[T](j0, bs)
	defer mat.PutBuf(ybuf)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, a.View(j0, 0, m-j0, j0), v2, 0, y)
	larftMerge(t, j0, bs, y)
}

// geqrtUnblocked is the column-by-column Householder QR leaf on a column-
// major copy of the m×bs strip a (t at least bs×bs, leading block
// written): per column, Larfg, the reflector applied to the columns on its
// right, and the T column.
func geqrtUnblocked[T mat.Float](a, t *mat.Dense[T]) {
	m, n := a.Rows, a.Cols
	buf := mat.GetBuf[T](m*n + n)
	defer mat.PutBuf(buf)
	cm, w := buf.Data[:m*n], buf.Data[m*n:]
	gatherColumns(cm, m, a, m)
	for j := 0; j < n; j++ {
		// Generate the reflector annihilating column j below row j.
		cj := cm[j*m:][:m]
		beta, tau := Larfg(cj[j], cj[j+1:])
		cj[j] = beta
		v := cj[j+1:]
		// Apply H = I − tau·[1; v]·[1; v]ᵀ to rows j..m of the columns on
		// the right.
		for c := j + 1; c < n && tau != 0; c++ {
			applyReflector(tau, v, &cm[c*m+j], cm[c*m+j+1:][:len(v)])
		}
		// Extend T: w[i] = V[:, i]ᵀ·v_j for i < j, with V unit lower
		// trapezoidal and v_j's implicit 1 in row j.
		for i := 0; i < j; i++ {
			ci := cm[i*m+j:][:m-j]
			w[i] = ci[0] + blas.Dot(ci[1:], v)
		}
		larftColumn(t, j, tau, w[:j])
	}
	scatterColumns(a, cm, m, m)
}

// Unmqr applies Q or Qᵀ (from a Geqrt factorization held in v's lower
// trapezoid and t) to the m×k matrix c from the left:
//
//	c ← Q·c   (trans == NoTrans)   c ← Qᵀ·c   (trans == Trans)
//
// with Q = I − V·T·Vᵀ. c must have v.Rows rows.
//
// All three stages run through blocked BLAS: W = VᵀC splits into a unit-
// lower TRMM on the top square of V plus a GEMM on the trapezoid below,
// T is applied by TRMM, and C −= V·W is the mirror TRMM + GEMM pair. The
// unit-diagonal TRMMs never read V's diagonal or upper triangle, so the R
// values sharing the tile are ignored exactly as in the scalar kernel.
func Unmqr[T mat.Float](trans blas.Transpose, v, t, c *mat.Dense[T]) {
	m, n := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: Unmqr shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Cols
	v1 := v.View(0, 0, n, n)
	c1 := c.View(0, 0, n, k)
	// W = V1ᵀ·C1 + V2ᵀ·C2. CopyFrom overwrites every row, so a pooled
	// (unzeroed) buffer is safe.
	w, wbuf := mat.GetMatrix[T](n, k)
	defer mat.PutBuf(wbuf)
	w.CopyFrom(c1)
	blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	if m > n {
		blas.Gemm(blas.Trans, blas.NoTrans, 1, v.View(n, 0, m-n, n), c.View(n, 0, m-n, k), 1, w)
	}
	// W ← op(T)·W with T upper triangular.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, 1, t.View(0, 0, n, n), w)
	// C2 −= V2·W; then C1 −= V1·W, with V1 applied to W in place.
	if m > n {
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v.View(n, 0, m-n, n), w, 1, c.View(n, 0, m-n, k))
	}
	blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	subRows(c1, w)
}
