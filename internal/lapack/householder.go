package lapack

import (
	"math"
	"unsafe"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Larfg generates an elementary Householder reflector H such that
//
//	H · [alpha]   [beta]
//	    [  x  ] = [ 0  ],   H = I − tau·[1]·[1 vᵀ]
//	                                    [v]
//
// x is overwritten with v and (beta, tau) are returned. H is orthogonal and
// symmetric. When x is zero and alpha needs no change, tau = 0 and H = I.
//
// A column whose squares leave T's range — xᵀx below larfgSafe's floor,
// where underflow may have eaten its digits, or alpha² + xᵀx overflowing —
// takes larfgScaled. Every other column, and every column holding an Inf
// or a NaN, gets the unscaled formula's bits.
func Larfg[T mat.Float](alpha T, x []T) (beta, tau T) { return larfgRank(alpha, x, 0) }

// larfgRank is Larfg with the QR leaves' rank test: a column whose ‖x‖₂ is
// at most thr > 0 counts as already annihilated, so x is zeroed and H = I
// (beta = alpha, tau = 0), as dlarfg does for an exactly zero x. The test
// reuses Larfg's xᵀx, compared where it holds no under- or overflow: on
// the unscaled path as it is, on the scaled path in the scaled units. An
// x holding an Inf or a NaN never passes it.
func larfgRank[T mat.Float](alpha T, x []T, thr float64) (beta, tau T) {
	sigma := blas.Dot(x, x)
	lo, hi := larfgSafe[T]()
	if float64(sigma) < lo || float64(alpha*alpha+sigma) > hi {
		return larfgScaled(alpha, x, thr)
	}
	if math.Sqrt(float64(sigma)) <= thr {
		clear(x)
		return alpha, 0
	}
	return larfgFormula(alpha, sigma, x)
}

// larfgSafe returns the range of xᵀx and alpha² + xᵀx inside which Larfg's
// unscaled formula is accurate: above hi (T's largest value) a square has
// overflowed, and below lo (T's smallest normal over its unit roundoff,
// LAPACK's dlarfg safmin) the squares that underflowed may matter.
func larfgSafe[T mat.Float]() (lo, hi float64) {
	var z T
	if unsafe.Sizeof(z) == 4 {
		return 0x1p-102, math.MaxFloat32
	}
	return 0x1p-969, math.MaxFloat64
}

// larfgFormula is Larfg's unscaled formula, given sigma = xᵀx.
func larfgFormula[T mat.Float](alpha, sigma T, x []T) (beta, tau T) {
	if sigma == 0 {
		// H = I. (We do not flip the sign of a negative alpha; LAPACK keeps
		// tau = 0 here as well.)
		return alpha, 0
	}
	mu := T(math.Sqrt(float64(alpha*alpha + sigma)))
	if alpha <= 0 {
		beta = mu
	} else {
		beta = -mu
	}
	tau = (beta - alpha) / beta
	blas.Scal(1/(alpha-beta), x)
	return beta, tau
}

// larfgScaled is Larfg for a column whose squares leave T's range. It
// scales alpha and x by the power of two that brings their largest
// magnitude into [1/2, 1), runs larfgFormula there, and scales beta back;
// v and tau do not depend on the scale. A power of two scales exactly,
// except entries it pushes below T's subnormal range, which lie under
// u·|beta| and cannot move it. This is what LAPACK's dnrm2/dlapy2 scaling
// and dlarfg's rescale loop achieve, and it also covers a |beta| past half
// of T's range, where dlarfg's 1/(alpha−beta) overflows. A column holding
// an Inf or a NaN keeps scale 1. The rank test compares ‖x‖₂ with thr in
// the scaled units, where xᵀx neither under- nor overflows.
func larfgScaled[T mat.Float](alpha T, x []T, thr float64) (beta, tau T) {
	amax := math.Abs(float64(alpha))
	for _, v := range x {
		amax = math.Max(amax, math.Abs(float64(v)))
	}
	_, e := math.Frexp(amax)
	for i, v := range x {
		x[i] = T(math.Ldexp(float64(v), -e))
	}
	sigma := blas.Dot(x, x)
	if thr > 0 && math.Sqrt(float64(sigma)) <= math.Ldexp(thr, -e) {
		clear(x)
		return alpha, 0
	}
	beta, tau = larfgFormula(T(math.Ldexp(float64(alpha), -e)), sigma, x)
	return T(math.Ldexp(float64(beta), e)), tau
}

// applyReflector applies H = I − tau·[1; v]·[1; v]ᵀ to the column
// [*head; c]: w = *head + vᵀ·c, then *head −= tau·w and c −= tau·w·v.
func applyReflector[T mat.Float](tau T, v []T, head *T, c []T) {
	s := tau * (*head + blas.Dot(v, c))
	*head -= s
	blas.Axpy(-s, v, c)
}

// larftColumn extends the compact-WY T factor by one column: given that the
// leading j×j block of t is the T factor of reflectors 0..j−1 and w already
// holds V[:,0:j]ᵀ·v_j, it writes column j of T:
//
//	T(0:j, j) = −tau · T(0:j, 0:j) · w,   T(j, j) = tau.
func larftColumn[T mat.Float](t *mat.Dense[T], j int, tau T, w []T) {
	// y = T(0:j,0:j) · w (T upper triangular).
	for r := 0; r < j; r++ {
		t.Set(r, j, -tau*blas.Dot(t.Row(r)[r:j], w[r:j]))
	}
	t.Set(j, j, tau)
}
