package blas

// AVX2+FMA micro-kernel selection. Go's default amd64 codegen targets the
// GOAMD64=v1 baseline (scalar SSE2), whose ~2 FP ops/cycle ceiling caps a
// pure-Go GEMM near 3 GFLOP/s on the paper-class hosts. The 6×8 assembly
// kernel (microkernel_amd64.s) issues two 4-wide FMAs per packed A element
// and keeps the whole 6×8 accumulator block in YMM registers, so hosts with
// AVX2+FMA run the same packed path several times faster. Feature detection
// happens once at init via CPUID/XGETBV; unsupported hosts keep the portable
// 4×4 kernel.

// cpuidLeaf executes CPUID with the given EAX/ECX inputs.
func cpuidLeaf(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// kernel6x8FMA computes C[0:6, 0:8] += Ap·Bp on packed micro-panels
// (layout as described in microkernel.go), with C rows ldc apart.
//
//go:noescape
func kernel6x8FMA(kc int, a, b, c *float64, ldc int)

// kernel6x16FMA32 computes C[0:6, 0:16] += Ap·Bp on packed float32
// micro-panels (layout as described in microkernel32.go), with C rows ldc
// float32s apart.
//
//go:noescape
func kernel6x16FMA32(kc int, a, b, c *float32, ldc int)

// cvtRowAVX converts dst[0:n] = float32(src[0:n]).
//
//go:noescape
func cvtRowAVX(dst *float32, src *float64, n int)

// cvtScaleStrideAVX writes dst[i*stride] = alpha·float32(src[i]).
//
//go:noescape
func cvtScaleStrideAVX(dst *float32, stride int, src *float64, alpha float32, n int)

// narrowNFMA and narrowTFMA are kernel6x8FMA's narrow-path companions
// (narrowNGeneric, narrowTGeneric): the same sums, with the same fused
// arithmetic per element, read from unpacked operands.
//
//go:noescape
func narrowNFMA(m, k int, alpha float64, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func narrowTFMA(m, k int, alpha float64, a *float64, lda int, b *float64, ldb int, acc *float64)

// axpyFMA computes y[0:n] += alpha·x[0:n] with AVX2 FMAs.
//
//go:noescape
func axpyFMA(alpha float64, x, y *float64, n int)

// dotFMA returns x[0:n]ᵀ·y[0:n] with AVX2 FMAs.
//
//go:noescape
func dotFMA(x, y *float64, n int) float64

func init() {
	if hasAVX2FMA() {
		gemmMR, gemmNR = 6, 8
		gemmKernel = kernelAVX6x8
		gemmNarrowN = func(m, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
			narrowNFMA(m, k, alpha, &a[0], lda, &b[0], ldb, &c[0], ldc)
		}
		gemmNarrowT = func(k int, alpha float64, a []float64, lda int, b []float64, ldb int, acc []float64) {
			narrowTFMA(len(acc), k, alpha, &a[0], lda, &b[0], ldb, &acc[0])
		}
		gemmMR32, gemmNR32 = 6, 16
		gemmKernel32 = kernelAVX6x16f32
		cvtRow32 = func(dst []float32, src []float64) {
			if len(src) == 0 {
				return
			}
			cvtRowAVX(&dst[0], &src[0], len(src))
		}
		cvtScaleStride32 = func(dst []float32, stride int, src []float64, alpha float32) {
			if len(src) == 0 {
				return
			}
			cvtScaleStrideAVX(&dst[0], stride, &src[0], alpha, len(src))
		}
		axpyKernel = func(alpha float64, x, y []float64) {
			axpyFMA(alpha, &x[0], &y[0], len(x))
		}
		dotKernel = func(x, y []float64) float64 {
			return dotFMA(&x[0], &y[0], len(x))
		}
	}
}

func kernelAVX6x8(kc int, a, b, c []float64, ldc int) {
	if kc == 0 {
		return
	}
	kernel6x8FMA(kc, &a[0], &b[0], &c[0], ldc)
}

func kernelAVX6x16f32(kc int, a, b, c []float32, ldc int) {
	if kc == 0 {
		return
	}
	kernel6x16FMA32(kc, &a[0], &b[0], &c[0], ldc)
}

// hasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernel.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidLeaf(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// The OS must save/restore XMM and YMM state across context switches.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidLeaf(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
