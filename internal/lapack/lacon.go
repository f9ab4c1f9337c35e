package lapack

import (
	"math"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// OneNormEst estimates ‖M‖₁ for an n×n linear operator M available only
// through matrix-vector products, using the Hager–Higham algorithm (the same
// scheme as LAPACK's DLACN2). apply must overwrite x with M·x and applyT
// with Mᵀ·x. Each call costs O(1) products; at most five iterations are
// performed, so the total cost is O(n²) when M·x is a triangular solve —
// exactly the O(nb²) criterion cost budget of §III-D of the paper.
//
// The estimate is a lower bound on ‖M‖₁ that is almost always within a
// factor ~3 and usually exact for the matrices met here.
func OneNormEst(n int, apply, applyT func(x []float64)) float64 {
	if n == 0 {
		return 0
	}
	buf := mat.GetBuf[float64](4 * n)
	defer mat.PutBuf(buf)
	x := buf.Data[0*n : 1*n]
	y := buf.Data[1*n : 2*n]
	z := buf.Data[2*n : 3*n]
	for i := range x {
		x[i] = 1 / float64(n)
	}
	copy(y, x)
	apply(y)
	est := mat.VecNorm1(y)
	if n == 1 {
		return est
	}
	prevJ := -1
	for iter := 0; iter < 5; iter++ {
		// z = Mᵀ·sign(y).
		for i, v := range y {
			if v >= 0 {
				z[i] = 1
			} else {
				z[i] = -1
			}
		}
		applyT(z)
		j := blas.Iamax(z)
		// Hager's optimality test: stop when ‖z‖∞ ≤ zᵀx, or when the same
		// unit vector would be probed again.
		if j == prevJ || math.Abs(z[j]) <= dotAbs(z, x) {
			break
		}
		prevJ = j
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		copy(y, x)
		apply(y)
		newEst := mat.VecNorm1(y)
		if newEst <= est {
			break
		}
		est = newEst
	}
	// Alternating extra vector guards against the rare underestimate.
	b := buf.Data[3*n : 4*n]
	for i := range b {
		s := 1.0
		if i%2 == 1 {
			s = -1
		}
		b[i] = s * (1 + float64(i)/float64(n-1))
	}
	apply(b)
	if alt := 2 * mat.VecNorm1(b) / (3 * float64(n)); alt > est {
		est = alt
	}
	return est
}

func dotAbs(z, x []float64) float64 {
	s := 0.0
	for i := range z {
		s += z[i] * x[i]
	}
	return math.Abs(s)
}

// InvNorm1EstLU estimates ‖A⁻¹‖₁ from an LU factorization (lu, piv) produced
// by Getrf on a square tile. This powers the Max and Sum criteria's
// ‖(A_kk)⁻¹‖₁⁻¹ term without ever forming the inverse.
func InvNorm1EstLU(lu *mat.Matrix, piv []int) float64 {
	n := lu.Rows
	return OneNormEst(n,
		func(x []float64) { GetrsVec(blas.NoTrans, lu, piv, x) },
		func(x []float64) { GetrsVec(blas.Trans, lu, piv, x) },
	)
}

// Inverse computes A⁻¹ densely (for tests and small diagnostics only).
func Inverse(a *mat.Matrix) (*mat.Matrix, error) {
	if a.Rows != a.Cols {
		panic("lapack: Inverse of non-square matrix")
	}
	lu := a.Clone()
	piv, err := Getrf(lu)
	if err != nil {
		return nil, err
	}
	inv := mat.Identity(a.Rows)
	Getrs(blas.NoTrans, lu, piv, inv)
	return inv, nil
}

// GeconEst estimates the reciprocal condition number in the 1-norm,
// rcond = 1/(‖A‖₁·‖A⁻¹‖₁), from an LU factorization produced by Getrf and
// the 1-norm of the original matrix — LAPACK's DGECON. A tiny rcond flags a
// solve whose forward error κ·ε will be large even when the algorithm is
// backward stable.
func GeconEst(lu *mat.Matrix, piv []int, anorm1 float64) float64 {
	if anorm1 <= 0 {
		return 0
	}
	inv := InvNorm1EstLU(lu, piv)
	if inv <= 0 {
		return 0
	}
	return 1 / (anorm1 * inv)
}
