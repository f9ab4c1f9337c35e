// Package lapack implements the LAPACK-style computational kernels the tiled
// LU-QR solver is built from: LU with partial pivoting (GETRF/LASWP/GETRS),
// the blocked-Householder QR tile kernels of the tiled-QR literature
// (GEQRT, UNMQR, TSQRT, TSMQR, TTQRT, TTMQR), triangular solves, and the
// Hager–Higham 1-norm inverse estimator used by the robustness criteria.
//
// All kernels operate on row-major mat.Dense values and are pure Go, each
// written once over the element type (float64, or float32 for the
// mixed-precision path's resident tile images); they mirror the reference LAPACK/PLASMA semantics (including in-place factor
// storage) so that the algorithm layer reads like the paper's pseudo-code.
package lapack

import (
	"errors"
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// ErrSingular is returned when an exactly zero pivot makes an LU
// factorization break down. Mirrors LAPACK's info > 0 convention.
var ErrSingular = errors.New("lapack: exactly singular matrix (zero pivot)")

// getrfLeaf is the recursion leaf width of Getrf: below this the classical
// unblocked elimination runs. Small enough that the O(m·leaf²) scalar work
// is a sliver of the total; the rest of the flops land in TRSM/GEMM.
const getrfLeaf = 8

// Getrf computes an LU factorization with partial (row) pivoting of an m×n
// matrix (m ≥ n): P·A = L·U. On return, the strictly lower trapezoid of a
// holds the multipliers of L (unit diagonal implicit) and the upper triangle
// holds U. piv[k] = r records that rows k and r were swapped at step k
// (LAPACK ipiv convention, 0-based). The returned error is ErrSingular when
// a zero pivot was hit; the factorization still completes with the zero
// pivot left in place, as in LAPACK.
//
// The factorization is recursive right-looking (Toledo's scheme): the
// column block is split in half, the left half factored recursively, the
// right half updated with one TRSM and one GEMM, then factored recursively
// in turn. All but O(n·m·leaf) of the work runs through the packed GEMM
// path, at every level of the recursion — unlike a fixed-width panel
// scheme, whose rank-leaf updates cap the panel itself at scalar speed.
func Getrf[T mat.Float](a *mat.Dense[T]) (piv []int, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Getrf requires m >= n, got %dx%d", m, n))
	}
	piv = make([]int, n)
	return piv, getrfRecursive(a, piv)
}

// getrfRecursive factors a in place, writing local (0-based within a) pivot
// indices into piv. The pivot sequence is identical to the classical
// right-looking elimination's: the same column maxima are compared at the
// same steps, only the order of the floating-point updates differs.
func getrfRecursive[T mat.Float](a *mat.Dense[T], piv []int) (err error) {
	m, n := a.Rows, a.Cols
	if n <= getrfLeaf {
		return getrfUnblocked(a, piv)
	}
	n1 := n / 2
	if e := getrfRecursive(a.View(0, 0, m, n1), piv[:n1]); e != nil {
		err = e
	}
	// Pull the left half's interchanges across the right half, solve for
	// U12, and apply the Schur update — then the bottom-right is an
	// independent LU problem.
	Laswp(a.View(0, n1, m, n-n1), piv[:n1], false)
	u12 := a.View(0, n1, n1, n-n1)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(0, 0, n1, n1), u12)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a.View(n1, 0, m-n1, n1), u12, 1, a.View(n1, n1, m-n1, n-n1))
	if e := getrfRecursive(a.View(n1, n1, m-n1, n-n1), piv[n1:]); e != nil {
		err = e
	}
	// Translate the right half's pivots to rows of a and pull its
	// interchanges back across the left columns.
	for j := n1; j < n; j++ {
		piv[j] += n1
		if piv[j] != j {
			r1, r2 := a.Row(j), a.Row(piv[j])
			for c := 0; c < n1; c++ {
				r1[c], r2[c] = r2[c], r1[c]
			}
		}
	}
	return err
}

// getrfUnblocked is the classical right-looking elimination with partial
// pivoting, writing local (0-based within a) pivot indices into piv. It is
// the recursion leaf, called once per narrow column strip but walking every
// row — so it indexes the backing array directly instead of going through
// the accessor methods.
func getrfUnblocked[T mat.Float](a *mat.Dense[T], piv []int) (err error) {
	m, n := a.Rows, a.Cols
	d, ld := a.Data, a.Stride
	// The pivot of column k+1 is found during column k's update loop (which
	// visits exactly the rows the search needs, with the final values), so
	// each column pays one pass over its rows instead of two. Only column 0
	// needs a dedicated strided search.
	p, pv := 0, math.Abs(float64(d[0]))
	for i := 1; i < m; i++ {
		if v := math.Abs(float64(d[i*ld])); v > pv {
			p, pv = i, v
		}
	}
	for k := 0; k < n; k++ {
		piv[k] = p
		if p != k {
			rk := d[k*ld : k*ld+n]
			rp := d[p*ld : p*ld+n]
			for c, v := range rk {
				rk[c], rp[c] = rp[c], v
			}
		}
		akk := d[k*ld+k]
		last := k+1 == n
		if akk == 0 {
			err = ErrSingular
			if !last {
				// No update ran; search column k+1 the slow way.
				p, pv = k+1, math.Abs(float64(d[(k+1)*ld+k+1]))
				for i := k + 2; i < m; i++ {
					if v := math.Abs(float64(d[i*ld+k+1])); v > pv {
						p, pv = i, v
					}
				}
			}
			continue
		}
		inv := 1 / akk
		// Scale multipliers and update the trailing submatrix row-wise,
		// tracking the max of the just-updated column k+1 as we go.
		rowk := d[k*ld+k+1 : k*ld+n]
		pv = -1
		for i := k + 1; i < m; i++ {
			off := i * ld
			lik := d[off+k] * inv
			d[off+k] = lik
			rowi := d[off+k+1 : off+n]
			if lik != 0 {
				for j, v := range rowk {
					rowi[j] -= lik * v
				}
			}
			if !last {
				if v := math.Abs(float64(rowi[0])); v > pv {
					p, pv = i, v
				}
			}
		}
	}
	return err
}

// GetrfNoPiv computes A = L·U without any pivoting (the LU NoPiv baseline's
// elimination). It breaks down (ErrSingular) on a zero diagonal element;
// the factorization continues past the breakdown exactly as Getrf does.
// Like Getrf it is recursive, so the bulk of the flops are TRSM/GEMM.
func GetrfNoPiv[T mat.Float](a *mat.Dense[T]) error {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: GetrfNoPiv requires m >= n, got %dx%d", m, n))
	}
	if n <= getrfLeaf {
		return getrfNoPivUnblocked(a)
	}
	var err error
	n1 := n / 2
	if e := GetrfNoPiv(a.View(0, 0, m, n1)); e != nil {
		err = e
	}
	u12 := a.View(0, n1, n1, n-n1)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(0, 0, n1, n1), u12)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a.View(n1, 0, m-n1, n1), u12, 1, a.View(n1, n1, m-n1, n-n1))
	if e := GetrfNoPiv(a.View(n1, n1, m-n1, n-n1)); e != nil {
		err = e
	}
	return err
}

// getrfNoPivUnblocked is the classical no-pivoting elimination leaf,
// indexing the backing array directly like getrfUnblocked.
func getrfNoPivUnblocked[T mat.Float](a *mat.Dense[T]) error {
	m, n := a.Rows, a.Cols
	d, ld := a.Data, a.Stride
	var err error
	for k := 0; k < n; k++ {
		akk := d[k*ld+k]
		if akk == 0 {
			err = ErrSingular
			continue
		}
		inv := 1 / akk
		rowk := d[k*ld+k+1 : k*ld+n]
		for i := k + 1; i < m; i++ {
			off := i * ld
			lik := d[off+k] * inv
			d[off+k] = lik
			if lik == 0 {
				continue
			}
			rowi := d[off+k+1 : off+n]
			for j, v := range rowk {
				rowi[j] -= lik * v
			}
		}
	}
	return err
}

// Laswp applies the row interchanges recorded by Getrf to a, forward
// (inverse == false: b := P·b, the order Getrf performed them) or backward
// (inverse == true: b := Pᵀ·b).
func Laswp[T mat.Float](a *mat.Dense[T], piv []int, inverse bool) {
	if !inverse {
		for k := 0; k < len(piv); k++ {
			if piv[k] != k {
				a.SwapRows(k, piv[k])
			}
		}
		return
	}
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			a.SwapRows(k, piv[k])
		}
	}
}

// LaswpCols applies the row interchanges recorded by Getrf to the columns
// of a: forward computes a := a·Pᵀ and inverse computes a := a·P, where P is
// the permutation with P·x = Laswp-forward(x). Used by the block-LU variant
// (B1), whose Eliminate step is A_ik ← A_ik·A_kk⁻¹ = A_ik·U⁻¹·L⁻¹·P.
func LaswpCols[T mat.Float](a *mat.Dense[T], piv []int, inverse bool) {
	swapCols := func(c1, c2 int) {
		if c1 == c2 {
			return
		}
		for i := 0; i < a.Rows; i++ {
			row := a.Row(i)
			row[c1], row[c2] = row[c2], row[c1]
		}
	}
	// P = T_{n−1}···T_0 (Laswp applies T_0 first). Then a·P applies the
	// column transpositions from T_{n−1} down to T_0, and a·Pᵀ = a·T_0···
	// from T_0 up.
	if inverse {
		for k := len(piv) - 1; k >= 0; k-- {
			swapCols(k, piv[k])
		}
		return
	}
	for k := 0; k < len(piv); k++ {
		swapCols(k, piv[k])
	}
}

// Getrs solves op(A)·X = B for a square A previously factored by Getrf,
// overwriting b with the solution. For trans == NoTrans it performs
// B ← U⁻¹·L⁻¹·P·B; for Trans, B ← Pᵀ·L⁻ᵀ·U⁻ᵀ·B.
func Getrs[T mat.Float](trans blas.Transpose, lu *mat.Dense[T], piv []int, b *mat.Dense[T]) {
	if lu.Rows != lu.Cols {
		panic(fmt.Sprintf("lapack: Getrs needs square LU, got %dx%d", lu.Rows, lu.Cols))
	}
	if b.Rows != lu.Rows {
		panic(fmt.Sprintf("lapack: Getrs shape mismatch LU=%d B=%dx%d", lu.Rows, b.Rows, b.Cols))
	}
	if trans == blas.NoTrans {
		Laswp(b, piv, false)
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lu, b)
		blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu, b)
		return
	}
	blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, lu, b)
	blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, lu, b)
	Laswp(b, piv, true)
}

// GetrsVec is Getrs for a single right-hand side held in a slice.
func GetrsVec(trans blas.Transpose, lu *mat.Matrix, piv []int, x []float64) {
	b := &mat.Matrix{Rows: len(x), Cols: 1, Stride: 1, Data: x}
	Getrs(trans, lu, piv, b)
}

// LUPivotGrowth returns, for a factorization produced by Getrf on a panel
// whose column maxima before factorization were colMax0, the per-column
// pivot magnitudes |U_jj|. It is the raw material of the MUMPS criterion.
func LUPivotGrowth(lu *mat.Matrix) []float64 {
	n := lu.Cols
	p := make([]float64, n)
	for j := 0; j < n; j++ {
		p[j] = math.Abs(lu.At(j, j))
	}
	return p
}
