package lapack

import (
	"luqr/internal/blas"
	"luqr/internal/mat"
)

// defaultPanelIB is the inner block size of the blocked panel kernels
// (GEQRT, TSQRT, TTQRT): reflectors are generated ib columns at a time by
// the unblocked leaf, and everything to the right of the ib-wide strip is
// updated through the block-reflector (GEMM/TRMM) path.
const defaultPanelIB = 32

// PanelIB returns the default inner block size of the blocked panel
// kernels, the one the kernels without an ib argument use.
func PanelIB() int { return defaultPanelIB }

// larftMerge extends the compact-WY T factor across an inner-block
// boundary. Given that t's leading j0×j0 block T1 covers reflectors
// 0..j0−1, its [j0,j0+bs) diagonal block T2 covers the freshly factored
// block, and y holds V1ᵀ·V2 (j0×bs, the cross-Gram of the two reflector
// sets), it writes the coupling block of the merged factor:
//
//	T(0:j0, j0:j0+bs) = −T1 · (V1ᵀ·V2) · T2
//
// which is the dlarft recurrence, so the assembled T equals the one the
// unblocked column-by-column construction would produce.
func larftMerge[T mat.Float](t *mat.Dense[T], j0, bs int, y *mat.Dense[T]) {
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(0, 0, j0, j0), y)
	blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(j0, j0, bs, bs), y)
	for i := 0; i < j0; i++ {
		dst := t.Row(i)[j0 : j0+bs]
		src := y.Row(i)
		for c := range dst {
			dst[c] = -src[c]
		}
	}
}

// subRows computes dst −= src and addRows dst += src, for equally shaped
// matrices, one row at a time through Axpy(∓1, …). fma(∓1, s, d) rounds
// exactly as d ∓ s does, signed zeros, subnormals and Inf included, and so
// does Axpy's scalar loop on every kernel table, so the result has the
// plain loop's bits; of two NaN operands, either payload may come through.
func subRows[T mat.Float](dst, src *mat.Dense[T]) {
	for i := 0; i < dst.Rows; i++ {
		blas.Axpy(-1, src.Row(i), dst.Row(i))
	}
}

func addRows[T mat.Float](dst, src *mat.Dense[T]) {
	for i := 0; i < dst.Rows; i++ {
		blas.Axpy(1, src.Row(i), dst.Row(i))
	}
}

// The unblocked leaves of GEQRT, TSQRT and TTQRT factor a pooled
// column-major copy of their strip, so that Larfg, the update of the
// columns right of each reflector and the T column all run along
// contiguous columns through Dot and Axpy. gatherColumns and
// scatterColumns move the strip between a's rows and the copy's columns,
// column j at cm[j*ld:]. They copy the entries (i, j) with i ≤ off+j, the
// trapezoid of a TTQRT strip; off ≥ a.Rows−1 copies all of a.

func gatherColumns[T mat.Float](cm []T, ld int, a *mat.Dense[T], off int) {
	for i := 0; i < a.Rows; i++ {
		for j := max(0, i-off); j < a.Cols; j++ {
			cm[j*ld+i] = a.Data[i*a.Stride+j]
		}
	}
}

func scatterColumns[T mat.Float](a *mat.Dense[T], cm []T, ld int, off int) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := max(0, i-off); j < a.Cols; j++ {
			row[j] = cm[j*ld+i]
		}
	}
}
