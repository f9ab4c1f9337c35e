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
// factor T in its upper triangle and Y = V₁·Tᵀ (FormY) in its strictly
// lower one, V₁ being V's top n×n block. This is the PLASMA GEQRT kernel.
//
// The factorization is blocked with inner block size ib = PanelIB():
// reflectors are generated an ib-wide strip at a time by the unblocked
// leaf, each strip's block reflector is applied to the trailing columns
// through the TRMM/GEMM path (Unmqr), and the strip's T block is merged
// into the full n×n T by the dlarft recurrence — so T is the one the
// unblocked kernel builds, up to rounding.
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
	rbuf := mat.GetBuf[T](n)
	ref := rbuf.Data[:n]
	clear(ref)
	absMaxColumns(ref, a, m)
	tol := rankTol[T](m)
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v := a.View(j0, j0, m-j0, bs)
		tb := t.View(j0, j0, bs, bs)
		geqrtUnblocked(v, tb, ref[j0:], tol)
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
	mat.PutBuf(rbuf)
	FormY(a.View(0, 0, n, n), t.View(0, 0, n, n))
}

// FormY writes Y = V₁·Tᵀ into the strictly lower triangle of the n×n t,
// from the unit lower triangular V₁ in v's strictly lower triangle and the
// upper triangular T in t's upper one; t's strictly lower triangle is
// overwritten. Geqrt forms Y this way, and a T stored without it (a
// factorization serialized before Y existed) gets it from here, with the
// same bits.
//
// Y is lower triangular and its diagonal is T's, which t already holds, so
// the square-V products of Unmqr and UnmqrRight read Y as t's lower
// triangle and take one triangular multiply by Y where T and V₁ took two.
//
// FormY copies X = Tᵀ out and multiplies it by V₁ one yStrip-wide column
// block C at a time: X's rows above C's first column are zero there, so
// Y[c0:, C] = V₁[c0:, c0:]·X[c0:, C] is one unit-lower TRMM of order
// n − c0, in place in the copy, whose strictly lower part then goes to t.
// That is n³/3 + n²·yStrip/2 flops.
func FormY[T mat.Float](v, t *mat.Dense[T]) {
	n := t.Rows
	if v.Rows != n || v.Cols != n || t.Cols != n {
		panic(fmt.Sprintf("lapack: FormY needs square V and T of one order, got %dx%d and %dx%d", v.Rows, v.Cols, t.Rows, t.Cols))
	}
	buf := mat.GetBuf[T](n * n)
	x := &mat.Dense[T]{Rows: n, Cols: n, Stride: n, Data: buf.Data[:n*n]}
	transposeUpper(x, t)
	for c0 := 0; c0 < n; c0 += yStrip {
		cb, r := min(yStrip, n-c0), n-c0
		blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v.View(c0, c0, r, r), x.View(c0, c0, r, cb))
		for i := c0 + 1; i < n; i++ {
			copy(t.Row(i)[c0:min(i, c0+cb)], x.Row(i)[c0:])
		}
	}
	mat.PutBuf(buf)
}

// yStrip is the column block of FormY.
const yStrip = 64

// transposeUpper writes into x the transpose of t's upper triangle, with
// zeros above x's diagonal inside each yStrip-wide diagonal block (the
// rest of x above the diagonal is left as it was, and not read). It moves
// 4×4 blocks, so each row of t is read four entries at a time.
func transposeUpper[T mat.Float](x, t *mat.Dense[T]) {
	n := t.Rows
	for i := 0; i < n; i++ {
		clear(x.Row(i)[i+1 : min(n, (i/yStrip+1)*yStrip)])
	}
	c0 := 0
	for ; c0+4 <= n; c0 += 4 {
		t0, t1, t2, t3 := t.Row(c0), t.Row(c0+1), t.Row(c0+2), t.Row(c0+3)
		// The diagonal block: x[i][c] = t[c][i] for c ≤ i.
		for i := c0; i < c0+4; i++ {
			xr := x.Row(i)
			for c := c0; c <= i; c++ {
				xr[c] = t.Data[c*t.Stride+i]
			}
		}
		i := c0 + 4
		for ; i+4 <= n; i += 4 {
			a, b, c, d := (*[4]T)(t0[i:]), (*[4]T)(t1[i:]), (*[4]T)(t2[i:]), (*[4]T)(t3[i:])
			*(*[4]T)(x.Row(i)[c0:]) = [4]T{a[0], b[0], c[0], d[0]}
			*(*[4]T)(x.Row(i + 1)[c0:]) = [4]T{a[1], b[1], c[1], d[1]}
			*(*[4]T)(x.Row(i + 2)[c0:]) = [4]T{a[2], b[2], c[2], d[2]}
			*(*[4]T)(x.Row(i + 3)[c0:]) = [4]T{a[3], b[3], c[3], d[3]}
		}
		for ; i < n; i++ {
			*(*[4]T)(x.Row(i)[c0:]) = [4]T{t0[i], t1[i], t2[i], t3[i]}
		}
	}
	for ; c0 < n; c0++ {
		for i := c0; i < n; i++ {
			x.Data[i*x.Stride+c0] = t.Data[c0*t.Stride+i]
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
// written): per column, Larfg with the rank test (reference ref[j], factor
// tol), the reflector applied to the columns on its right, and the T
// column.
func geqrtUnblocked[T mat.Float](a, t *mat.Dense[T], ref []T, tol float64) {
	m, n := a.Rows, a.Cols
	buf := mat.GetBuf[T](m*n + n)
	defer mat.PutBuf(buf)
	cm, w := buf.Data[:m*n], buf.Data[m*n:]
	gatherColumns(cm, m, a, m)
	for j := 0; j < n; j++ {
		// Generate the reflector annihilating column j below row j.
		cj := cm[j*m:][:m]
		beta, tau := larfgRank(cj[j], cj[j+1:], rankThr(tol, ref[j]))
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
// A square V is V₁ alone, and t holds Y = V₁·Tᵀ in its lower triangle
// (FormY), so each product is two triangular multiplies on W = C:
//
//	Qᵀ·C = C − Y·(V₁ᵀ·C)      Q·C = C − V₁·(Yᵀ·C)
//
// A trapezoidal V (only Geqrt's own inner strips have one) takes three
// stages through blocked BLAS: W = VᵀC splits into a unit-lower TRMM on the
// top square of V plus a GEMM on the trapezoid below, T is applied by
// TRMM, and C −= V·W is the mirror TRMM + GEMM pair. The unit-diagonal
// TRMMs never read V's diagonal or upper triangle, so the R values sharing
// the tile are ignored exactly as in the scalar kernel.
func Unmqr[T mat.Float](trans blas.Transpose, v, t, c *mat.Dense[T]) {
	m, n := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: Unmqr shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Cols
	v1 := v.View(0, 0, n, n)
	c1 := c.View(0, 0, n, k)
	// CopyFrom overwrites every row, so a pooled (unzeroed) buffer is safe.
	w, wbuf := mat.GetMatrix[T](n, k)
	defer mat.PutBuf(wbuf)
	w.CopyFrom(c1)
	if m == n {
		y := t.View(0, 0, n, n)
		if trans == blas.Trans {
			blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
			blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, 1, y, w)
		} else {
			blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit, 1, y, w)
			blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
		}
		subRows(c1, w)
		return
	}
	// W = V1ᵀ·C1 + V2ᵀ·C2.
	blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, v.View(n, 0, m-n, n), c.View(n, 0, m-n, k), 1, w)
	// W ← op(T)·W with T upper triangular.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, 1, t.View(0, 0, n, n), w)
	// C2 −= V2·W; then C1 −= V1·W, with V1 applied to W in place.
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v.View(n, 0, m-n, n), w, 1, c.View(n, 0, m-n, k))
	blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	subRows(c1, w)
}
