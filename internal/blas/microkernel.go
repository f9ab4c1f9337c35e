package blas

import (
	"unsafe"

	"luqr/internal/mat"
)

// The GEMM micro-kernel computes one MR×NR register tile of C:
//
//	C[0:MR, 0:NR] += Ap · Bp
//
// where Ap is an MR-tall packed micro-panel (kc columns, column-major:
// element (i, p) at a[p*MR+i]) and Bp an NR-wide packed micro-panel
// (kc rows, row-major: element (p, j) at b[p*NR+j]). C is addressed through
// its row stride ldc, so the kernel can write straight into a tile, a view,
// or a scratch buffer. Packing (pack.go) zero-pads fringe panels to full
// MR/NR, so kernels never see partial panels; the driver routes fringe
// tiles of C through a scratch tile instead.
//
// The portable kernel below keeps a 4×4 accumulator block in locals so the
// compiler can hold it in registers; amd64 hosts replace it at init time
// (microkernel_amd64.go) with assembly kernels that hold the accumulator
// block in twelve vector registers: 6×8 float64 or 6×16 float32 in YMM
// registers with AVX2+FMA, 6×16 float64 or 6×32 float32 in ZMM registers
// with AVX-512F.

// kernels is the kernel table of one element type: the only per-type code
// in this package. Every blas routine, and through them every lapack
// kernel, is one generic body that reads what it needs from table[T]().
type kernels[T mat.Float] struct {
	// id names the table: "avx512", "avx2" or "portable" (KernelID).
	id string
	// mr×nr is the micro-tile geometry of gemm, the GEMM micro-kernel.
	mr, nr int
	gemm   func(kc int, a, b, c []T, ldc int)
	// packPanel packs one full mr-tall micro-panel for gemm (packA) from A,
	// rows lda apart; the tables' entries differ only in that height. A is
	// a slice, not a *mat.Dense: an operand passed through a function value
	// escapes, and a matrix view would then cost a heap allocation.
	packPanel func(dst, a []T, lda int, transA Transpose, alpha T, i, p0, kc int)
	// packRows copies kc rows of one full NR-wide micro-panel of B, rows
	// ldb apart, into dst back to back (packB); nil where the table has no
	// such entry, and packB copies each row itself.
	packRows func(dst, b []T, ldb, kc int)
	// narrowN and narrowT are gemm's narrow-path companions (gemmNarrow),
	// nil when the type has none that round exactly as gemm does; the
	// narrow path then stays off. narrowCols is the widest C that Gemm
	// sends to them, measured per table (zero without them).
	narrowCols int
	narrowN    func(m, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int)
	narrowT    func(k int, alpha T, a []T, lda int, b []T, ldb int, acc []T)
	// axpy and dot are the SIMD level-1 kernels, nil on hosts without them.
	axpy func(alpha T, x, y []T)
	dot  func(x, y []T) T
	// above32 is the float32 excursion scan (Above32), read from the
	// float32 table only; nil where the table has none, and Above32 runs
	// the scalar loop.
	above32 func(x []float32, ceil uint32) bool
}

// The tables start portable; init-time CPU detection may replace entries.
var (
	kernels64 = portableKernels[float64]()
	kernels32 = portableKernels[float32]()
)

// portableKernels is the pure-Go table: the 4×4 micro-kernel with its
// narrow companions, and the scalar level-1 loops.
func portableKernels[T mat.Float]() kernels[T] {
	return kernels[T]{
		id: "portable", mr: 4, nr: 4, gemm: kernelGeneric4x4[T], packPanel: packPanel4[T],
		narrowCols: 2, narrowN: narrowNGeneric[T], narrowT: narrowTGeneric[T],
	}
}

// table returns the kernel table of element type T. Axpy and Dot look it up
// on every call, so it selects by element size, a constant of each compiled
// instantiation: the selection folds to a plain global load, where a type
// assertion would cost a dictionary lookup per call.
func table[T mat.Float]() *kernels[T] {
	var z T
	if unsafe.Sizeof(z) == unsafe.Sizeof(float32(0)) {
		return (*kernels[T])(unsafe.Pointer(&kernels32))
	}
	return (*kernels[T])(unsafe.Pointer(&kernels64))
}

// kernelGeneric4x4 is the portable micro-kernel: C[0:4, 0:4] += Ap·Bp with
// a fully unrolled register accumulator block.
func kernelGeneric4x4[T mat.Float](kc int, a, b, c []T, ldc int) {
	var (
		c00, c01, c02, c03 T
		c10, c11, c12, c13 T
		c20, c21, c22, c23 T
		c30, c31, c32, c33 T
	)
	for p := 0; p < kc; p++ {
		ap := a[4*p : 4*p+4 : 4*p+4]
		bp := b[4*p : 4*p+4 : 4*p+4]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r := c[0:4:4]
	r[0] += c00
	r[1] += c01
	r[2] += c02
	r[3] += c03
	r = c[ldc : ldc+4 : ldc+4]
	r[0] += c10
	r[1] += c11
	r[2] += c12
	r[3] += c13
	r = c[2*ldc : 2*ldc+4 : 2*ldc+4]
	r[0] += c20
	r[1] += c21
	r[2] += c22
	r[3] += c23
	r = c[3*ldc : 3*ldc+4 : 3*ldc+4]
	r[0] += c30
	r[1] += c31
	r[2] += c32
	r[3] += c33
}

// narrowNGeneric is kernelGeneric4x4's narrow-path companion for op(A) = A:
// for each row i < m, c[i*ldc] += Σ_p (alpha·a[i*lda+p])·b[p*ldb] over
// p < k, the sum accumulated from zero in p order as the 4×4 kernel
// accumulates one element of C.
func narrowNGeneric[T mat.Float](m, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	for i := 0; i < m; i++ {
		var s T
		for p, v := range a[i*lda:][:k] {
			s += alpha * v * b[p*ldb]
		}
		c[i*ldc] += s
	}
}

// narrowTGeneric is kernelGeneric4x4's narrow-path companion for
// op(A) = Aᵀ: for p < k in order, acc[i] += (alpha·a[p*lda+i])·b[p*ldb]
// for every i < len(acc).
func narrowTGeneric[T mat.Float](k int, alpha T, a []T, lda int, b []T, ldb int, acc []T) {
	for p := 0; p < k; p++ {
		bv := b[p*ldb]
		for i, v := range a[p*lda:][:len(acc)] {
			acc[i] += alpha * v * bv
		}
	}
}
