package blas

// Float32 GEMM micro-kernel. Same packed-panel contract as the float64
// kernel (microkernel.go) with float32 elements: Ap is MR-tall column-major
// (element (i, p) at a[p*MR+i]), Bp is NR-wide row-major (element (p, j) at
// b[p*NR+j]), and the kernel accumulates C[0:MR, 0:NR] += Ap·Bp through the
// row stride ldc. The mixed-precision driver always points C at a padded
// float32 scratch block (level3_f32r.go), so — unlike the f64 path — f32
// kernels never need a fringe detour: every micro-tile write is full-size.
//
// The portable kernel is the 4×4 register block below; amd64 hosts with
// AVX2+FMA swap in a 6×16 assembly kernel at init (microkernel_amd64.go)
// that runs two 8-wide float32 FMAs per packed A element — twice the flops
// per instruction of the f64 6×8 kernel, which is where the mixed-precision
// speedup comes from.

// Micro-tile geometry and kernel for the f32 path, selected at init.
var (
	gemmMR32     = 4
	gemmNR32     = 4
	gemmKernel32 = kernelGeneric4x4f32
)

// kernelGeneric4x4f32 is the portable float32 micro-kernel: C[0:4, 0:4] +=
// Ap·Bp with a fully unrolled register accumulator block.
func kernelGeneric4x4f32(kc int, a, b, c []float32, ldc int) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
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
