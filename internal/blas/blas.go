// Package blas implements the subset of dense Basic Linear Algebra
// Subprograms needed by the tiled LU-QR solver, on row-major matrices from
// the mat package. Every routine is written once over the element type
// (float64, or float32 for the mixed-precision path); what differs between
// the two types is the kernel table of microkernel.go.
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

// Vector lengths below simdMin stay on the scalar loops: the call/setup
// overhead of the assembly outweighs its FMAs for very short vectors.
// Axpy's scalar loop still fuses when the table's axpy kernel is active, so
// an element's rounding never depends on the vector's length (a triangular
// solve's rows, and so a float64 right-hand side's bits, stay independent
// of how many columns ride along).
const simdMin = 8

// KernelID names the kernel table element type T runs on this host:
// "avx512", "avx2" or "portable". Part of the autotuner's machine
// fingerprint: a tuning table probed under one micro-kernel must not be
// reused under another.
func KernelID[T mat.Float]() string { return table[T]().id }

// Above32 reports whether some element of x, its sign bit cleared, has a
// bit pattern above ceil. With the sign cleared, float32 bit patterns sort
// as their magnitudes do, and ±Inf and every NaN sort above each finite
// value: with ceil the bits of a nonnegative float32 c, it reports an
// element of magnitude above c, an infinity or a NaN.
func Above32(x []float32, ceil uint32) bool {
	if s := table[float32]().above32; s != nil {
		return s(x, ceil)
	}
	return above32Generic(x, ceil)
}

// above32Generic is Above32's scalar loop, one unsigned compare per element.
func above32Generic(x []float32, ceil uint32) bool {
	for _, v := range x {
		if math.Float32bits(v)&^(1<<31) > ceil {
			return true
		}
	}
	return false
}

// Dot returns xᵀy.
func Dot[T mat.Float](x, y []T) T {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	if k := table[T](); k.dot != nil && len(x) >= simdMin {
		return k.dot(x, y)
	}
	var s T
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha·x.
func Axpy[T mat.Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	k := table[T]()
	if k.axpy != nil && len(x) >= simdMin {
		k.axpy(alpha, x, y)
		return
	}
	fused := k.axpy != nil
	for i, v := range x {
		y[i] = madd(fused, alpha, v, y[i])
	}
}

// madd returns c + a·b, rounded once when fused is set (the FMA kernels'
// arithmetic) and twice otherwise (the portable loops'). The fused product
// is formed in float64, which is the FMA itself for float64 operands and
// exact up to a rare double rounding for float32 ones.
func madd[T mat.Float](fused bool, a, b, c T) T {
	if fused {
		return T(math.FMA(float64(a), float64(b), float64(c)))
	}
	return c + a*b
}

// Scal computes x *= alpha.
func Scal[T mat.Float](alpha T, x []T) {
	for i := range x {
		x[i] *= alpha
	}
}

// Iamax returns the index of the first element of maximum absolute value.
// It panics on an empty slice.
func Iamax[T mat.Float](x []T) int {
	if len(x) == 0 {
		panic("blas: Iamax of empty vector")
	}
	best, bv := 0, math.Abs(float64(x[0]))
	for i := 1; i < len(x); i++ {
		if a := math.Abs(float64(x[i])); a > bv {
			best, bv = i, a
		}
	}
	return best
}
