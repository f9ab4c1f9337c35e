// Package blas implements the subset of dense Basic Linear Algebra
// Subprograms needed by the tiled LU-QR solver, on row-major matrices from
// the mat package.
//
// It is a pure-Go stand-in for the vendor BLAS (MKL in the paper's setup):
// the mathematics and the flop counts are identical, only absolute speed
// differs. Level-3 kernels use loop orders that stream along rows (the unit
// stride of the row-major layout), which is what makes GEMM — and therefore
// the LU update path of the hybrid algorithm — the fastest kernel here, just
// as it is on the paper's platform.
package blas

import (
	"fmt"
	"math"

	"luqr/internal/mat"
)

// Side selects whether a triangular factor is applied from the left or the
// right in Trsm/Trmm.
type Side int

// Uplo selects the triangle of a triangular matrix.
type Uplo int

// Diag declares whether a triangular matrix has an implicit unit diagonal.
type Diag int

// Transpose selects op(A) ∈ {A, Aᵀ}.
type Transpose int

// Enumerations follow the BLAS naming scheme.
const (
	Left Side = iota
	Right
)

const (
	Upper Uplo = iota
	Lower
)

const (
	NonUnit Diag = iota
	Unit
)

const (
	NoTrans Transpose = iota
	Trans
)

// axpyKernel and dotKernel are the SIMD level-1 kernels, nil on hosts
// without AVX2+FMA (selection in microkernel_amd64.go). Vector lengths
// below simdMin stay on the scalar loops: the call/setup overhead of the
// assembly outweighs 4-wide FMAs for very short vectors. Axpy's scalar loop
// still fuses when axpyKernel is active, so an element's rounding never
// depends on the vector's length (a triangular solve's rows, and so a
// right-hand side's bits, stay independent of how many columns ride along).
var (
	axpyKernel func(alpha float64, x, y []float64)
	dotKernel  func(x, y []float64) float64
)

const simdMin = 8

// SimdAccelerated reports whether the SIMD (AVX2+FMA) kernels are active on
// this host. Part of the autotuner's machine fingerprint: a tuning table
// probed with vector kernels must not be reused on a host running the
// generic paths.
func SimdAccelerated() bool { return axpyKernel != nil }

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	if dotKernel != nil && len(x) >= simdMin {
		return dotKernel(x, y)
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha·x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	if axpyKernel != nil && len(x) >= simdMin {
		axpyKernel(alpha, x, y)
		return
	}
	fused := axpyKernel != nil
	for i, v := range x {
		y[i] = madd(fused, alpha, v, y[i])
	}
}

// madd returns c + a·b, rounded once when fused is set (the FMA kernels'
// arithmetic) and twice otherwise (the portable loops').
func madd(fused bool, a, b, c float64) float64 {
	if fused {
		return math.FMA(a, b, c)
	}
	return c + a*b
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Iamax returns the index of the first element of maximum absolute value.
// It panics on an empty slice.
func Iamax(x []float64) int {
	if len(x) == 0 {
		panic("blas: Iamax of empty vector")
	}
	best, bv := 0, math.Abs(x[0])
	for i := 1; i < len(x); i++ {
		if a := math.Abs(x[i]); a > bv {
			best, bv = i, a
		}
	}
	return best
}

// Ger performs the rank-1 update A += alpha·x·yᵀ.
func Ger(alpha float64, x, y []float64, a *mat.Matrix) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("blas: Ger shape mismatch %dx%d vs |x|=%d |y|=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		axi := alpha * x[i]
		if axi == 0 {
			continue
		}
		row := a.Row(i)
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}
