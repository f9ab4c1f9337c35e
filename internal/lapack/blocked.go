package lapack

import (
	"math"
	"unsafe"

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

// The leaves treat a column as already annihilated when the part x below
// its diagonal has ‖x‖₂ ≤ 16·m·u·ref, where m is the stacked height of the
// tile kernel, u the unit roundoff and ref the largest magnitude in the
// column when the tile kernel started (absMaxColumns). Such an x is
// rounding noise left by the reflectors before it: a rank-deficient tile
// leaves one in every column past its rank. Reflecting it would make the
// later reflectors, and every product with Q, depend on that noise, so the
// leaf zeroes it and takes H = I (larfgRank). What it drops is at most
// O(u·‖A‖), so the factorization stays backward stable. The reference does
// not depend on the inner block size, so neither does the test.

// absMaxColumns raises ref[j] to the largest magnitude among the entries
// (i, j) of a with i ≤ off+j, the trapezoid gatherColumns copies. It
// compares magnitudes as their bit patterns, which order non-negative
// floats as they order by value, at about half a float compare's cost; a
// NaN raises ref[j] to a NaN, which turns the column's test off.
func absMaxColumns[T mat.Float](ref []T, a *mat.Dense[T], off int) {
	var z T
	if unsafe.Sizeof(z) == 4 {
		absMaxBits(bitsOf[T, uint32](ref), bitsOf[T, uint32](a.Data), a.Rows, a.Cols, a.Stride, off)
		return
	}
	absMaxBits(bitsOf[T, uint64](ref), bitsOf[T, uint64](a.Data), a.Rows, a.Cols, a.Stride, off)
}

func absMaxBits[U uint32 | uint64](ref, data []U, rows, cols, stride, off int) {
	sign := ^(^U(0) >> 1)
	for i := 0; i < rows; i++ {
		lo := max(0, i-off)
		if lo >= cols {
			break
		}
		r := ref[lo:cols]
		for j, x := range data[i*stride+lo : i*stride+cols] {
			if v := x &^ sign; v > r[j] {
				r[j] = v
			}
		}
	}
}

// bitsOf views a float slice as the unsigned integers of its bits; U must
// have T's size.
func bitsOf[T mat.Float, U uint32 | uint64](x []T) []U {
	return unsafe.Slice((*U)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
}

// rankTol returns the rank test's factor 16·m·u for stacked height m.
func rankTol[T mat.Float](m int) float64 {
	var z T
	if unsafe.Sizeof(z) == 4 {
		return 16 * float64(m) * 0x1p-24
	}
	return 16 * float64(m) * 0x1p-53
}

// rankThr returns the rank test's threshold on ‖x‖₂ for a column of
// reference ref, or 0 (no test) when ref is not finite.
func rankThr[T mat.Float](tol float64, ref T) float64 {
	if thr := tol * float64(ref); thr <= math.MaxFloat64 {
		return thr
	}
	return 0
}
