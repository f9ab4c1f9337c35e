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
func UnmqrRight[T mat.Float](trans blas.Transpose, v, t, c *mat.Dense[T]) {
	m, n := v.Rows, v.Cols
	if c.Cols != m {
		panic(fmt.Sprintf("lapack: UnmqrRight shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Rows
	// W = C·V (k×n), exploiting V's unit lower trapezoidal structure:
	// W[:, j] = C[:, j] + Σ_{r>j} C[:, r]·v(r, j). Every row is fully
	// written (copy then accumulate), so the pooled buffer is safe unzeroed.
	w, wbuf := mat.GetMatrix[T](k, n)
	defer mat.PutBuf(wbuf)
	for r := 0; r < k; r++ {
		crow := c.Row(r)
		wrow := w.Row(r)
		copy(wrow, crow[:n]) // the implicit identity block of V
		for q := 0; q < m; q++ {
			vrow := v.Row(q)
			cq := crow[q]
			if cq == 0 {
				continue
			}
			hi := q
			if hi > n {
				hi = n
			}
			// Row q of V holds v(q, j) for j < min(q, n); the diagonal 1 was
			// already added by the copy above.
			for j := 0; j < hi; j++ {
				wrow[j] += cq * vrow[j]
			}
		}
	}
	// W ← W·op(T): c·Q = c − (C·V)·T·Vᵀ, c·Qᵀ = c − (C·V)·Tᵀ·Vᵀ.
	tview := t.View(0, 0, n, n)
	if trans == blas.Trans {
		blas.Trmm(blas.Right, blas.Upper, blas.Trans, blas.NonUnit, 1, tview, w)
	} else {
		blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tview, w)
	}
	// C ← C − W·Vᵀ: C[:, q] −= Σ_j W[:, j]·v(q, j) (+ the identity part).
	for r := 0; r < k; r++ {
		crow := c.Row(r)
		wrow := w.Row(r)
		for q := 0; q < m; q++ {
			vrow := v.Row(q)
			hi := q
			if hi > n {
				hi = n
			}
			var s T
			for j := 0; j < hi; j++ {
				s += wrow[j] * vrow[j]
			}
			if q < n {
				s += wrow[q] // implicit unit diagonal
			}
			crow[q] -= s
		}
	}
}
