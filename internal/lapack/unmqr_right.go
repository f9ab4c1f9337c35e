package lapack

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// UnmqrRight applies Q or Qᵀ (from a Geqrt factorization held in v's lower
// trapezoid and t) to the k×m matrix c from the right:
//
//	c ← c·Q   (trans == NoTrans)   c ← c·Qᵀ   (trans == Trans)
//
// with Q = I − V·T·Vᵀ. c must have v.Rows columns. Used by the block-LU
// variant (B2), whose Eliminate step is A_ik ← A_ik·A_kk⁻¹ = (A_ik·R⁻¹)·Qᵀ.
//
// It mirrors Unmqr with the Right-side TRMM. A square V takes two
// triangular multiplies on W = C, with Y = V₁·Tᵀ from t's lower triangle:
//
//	C·Q = C − (C·V₁)·Yᵀ      C·Qᵀ = C − (C·Y)·V₁ᵀ
//
// A trapezoidal one takes three stages: W = C·V is a unit-lower TRMM on the
// top square V1 plus a GEMM on the trapezoid V2 below it, W·op(T) is a
// TRMM, and C −= W·Vᵀ the mirror GEMM + TRMM pair.
func UnmqrRight[T mat.Float](trans blas.Transpose, v, t, c *mat.Dense[T]) {
	m, n := v.Rows, v.Cols
	if c.Cols != m {
		panic(fmt.Sprintf("lapack: UnmqrRight shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Rows
	v1 := v.View(0, 0, n, n)
	c1 := c.View(0, 0, k, n)
	// CopyFrom overwrites every row, so a pooled (unzeroed) buffer is safe.
	w, wbuf := mat.GetMatrix[T](k, n)
	defer mat.PutBuf(wbuf)
	w.CopyFrom(c1)
	if m == n {
		y := t.View(0, 0, n, n)
		if trans == blas.NoTrans {
			blas.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
			blas.Trmm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit, 1, y, w)
		} else {
			blas.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.NonUnit, 1, y, w)
			blas.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
		}
		subRows(c1, w)
		return
	}
	// W = C1·V1 + C2·V2.
	blas.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, c.View(0, n, k, m-n), v.View(n, 0, m-n, n), 1, w)
	// W ← W·op(T): c·Q = c − (C·V)·T·Vᵀ, c·Qᵀ = c − (C·V)·Tᵀ·Vᵀ.
	blas.Trmm(blas.Right, blas.Upper, trans, blas.NonUnit, 1, t.View(0, 0, n, n), w)
	// C2 −= W·V2ᵀ; then C1 −= W·V1ᵀ, with V1ᵀ applied to W in place.
	blas.Gemm(blas.NoTrans, blas.Trans, -1, w, v.View(n, 0, m-n, n), 1, c.View(0, n, k, m-n))
	blas.Trmm(blas.Right, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	subRows(c1, w)
}
