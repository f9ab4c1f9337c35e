package lapack

import (
	"math"

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
func Larfg[T mat.Float](alpha T, x []T) (beta, tau T) {
	sigma := blas.Dot(x, x)
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

// larftColumn extends the compact-WY T factor by one column: given that the
// leading j×j block of t is the T factor of reflectors 0..j−1 and w already
// holds V[:,0:j]ᵀ·v_j, it writes column j of T:
//
//	T(0:j, j) = −tau · T(0:j, 0:j) · w,   T(j, j) = tau.
func larftColumn[T mat.Float](t *mat.Dense[T], j int, tau T, w []T) {
	// y = T(0:j,0:j) · w (T upper triangular).
	for r := 0; r < j; r++ {
		var s T
		row := t.Row(r)
		for c := r; c < j; c++ {
			s += row[c] * w[c]
		}
		t.Set(r, j, -tau*s)
	}
	t.Set(j, j, tau)
}
