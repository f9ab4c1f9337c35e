package mat

import (
	"fmt"
	"math"
)

// Vector helpers. Vectors are plain []float64; these functions implement the
// handful of reductions the solver needs outside of BLAS.

// VecNormInf returns max_i |x_i|.
func VecNormInf(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// VecNorm1 returns Σ|x_i|.
func VecNorm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// VecNorm2 returns the Euclidean norm.
func VecNorm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// MulVec computes y = A·x for a dense A. len(x) must equal A.Cols; the result
// has length A.Rows.
func MulVec(a *Matrix, x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: %dx%d by %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Residual returns r = b − A·x.
func Residual(a *Matrix, x, b []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("mat: Residual dimension mismatch: %dx%d by %d", a.Rows, a.Cols, len(x)))
	}
	r := make([]float64, len(b))
	ResidualRows(a, x, b, r, 0, a.Rows)
	return r
}

// ResidualRows writes r_i = b_i − Σ_j a_ij·x_j for the rows lo ≤ i < hi.
// Each row sums in column order, as MulVec does, so the residual's bits do
// not depend on how its rows are split among callers. Four rows run side by
// side: their sums are independent chains the processor overlaps.
func ResidualRows(a *Matrix, x, b, r []float64, lo, hi int) {
	x = x[:a.Cols]
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += a0[j] * xj
			s1 += a1[j] * xj
			s2 += a2[j] * xj
			s3 += a3[j] * xj
		}
		r[i], r[i+1], r[i+2], r[i+3] = b[i]-s0, b[i+1]-s1, b[i+2]-s2, b[i+3]-s3
	}
	for ; i < hi; i++ {
		s := 0.0
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		r[i] = b[i] - s
	}
}

// HPL3 computes the High-Performance Linpack backward-error metric used
// throughout the paper's evaluation (§V-A):
//
//	HPL3 = ‖Ax − b‖∞ / (‖A‖∞ · ‖x‖∞ · ε · N)
//
// where ε is the double-precision machine epsilon and N the matrix order. A
// result of order 1 or below indicates a backward-stable solve.
func HPL3(a *Matrix, x, b []float64) float64 {
	return HPL3Residual(Residual(a, x, b), x, a.NormInf())
}

// HPL3Residual is HPL3 from a residual r = b − A·x the caller already holds
// and normA = ‖A‖∞, so a solver that forms the residual anyway (refinement
// needs it as the next right-hand side) reads A once, not twice.
//
// A non-finite solution (breakdown, overflow) is an unconditional failure,
// and so is a NaN residual entry, whichever of A, x or b put it there: the
// residual's max-norm propagates NaN instead of dropping it through a `>`
// comparison, which would score a poisoned solve as exact.
func HPL3Residual(r, x []float64, normA float64) float64 {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1)
		}
	}
	rn := 0.0
	for _, v := range r {
		a := math.Abs(v)
		if math.IsNaN(a) {
			return math.Inf(1)
		}
		if a > rn {
			rn = a
		}
	}
	eps := math.Nextafter(1, 2) - 1
	den := normA * VecNormInf(x) * eps * float64(len(r))
	if den == 0 {
		if rn == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rn / den
}
