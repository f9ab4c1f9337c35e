package blas

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
// compiler can hold it in registers; amd64 hosts with AVX2+FMA replace it at
// init time with a 6×8 assembly kernel (microkernel_amd64.go) that holds the
// full accumulator block in twelve YMM registers.

// Micro-tile geometry and kernel, selected at init. gemmMR×gemmNR is 4×4
// for the portable kernel and 6×8 for the AVX2 kernel. The narrow-path
// kernels (gemmNarrow) are selected with it, because they must round every
// element exactly as it does.
var (
	gemmMR      = 4
	gemmNR      = 4
	gemmKernel  = kernelGeneric4x4
	gemmNarrowN = narrowNGeneric
	gemmNarrowT = narrowTGeneric
)

// kernelGeneric4x4 is the portable micro-kernel: C[0:4, 0:4] += Ap·Bp with
// a fully unrolled register accumulator block.
func kernelGeneric4x4(kc int, a, b, c []float64, ldc int) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
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
func narrowNGeneric(m, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		var s float64
		for p, v := range a[i*lda:][:k] {
			s += alpha * v * b[p*ldb]
		}
		c[i*ldc] += s
	}
}

// narrowTGeneric is kernelGeneric4x4's narrow-path companion for
// op(A) = Aᵀ: for p < k in order, acc[i] += (alpha·a[p*lda+i])·b[p*ldb]
// for every i < len(acc).
func narrowTGeneric(k int, alpha float64, a []float64, lda int, b []float64, ldb int, acc []float64) {
	for p := 0; p < k; p++ {
		bv := b[p*ldb]
		for i, v := range a[p*lda:][:len(acc)] {
			acc[i] += alpha * v * bv
		}
	}
}
