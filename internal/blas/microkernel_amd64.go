package blas

// SIMD kernel selection. Go's default amd64 codegen targets the GOAMD64=v1
// baseline (scalar SSE2), whose ~2 FP ops/cycle ceiling caps a pure-Go GEMM
// near 3 GFLOP/s on the paper-class hosts. The 6×8 float64 assembly kernel
// (microkernel_amd64.s) issues two 4-wide FMAs per packed A element and
// keeps the whole 6×8 accumulator block in YMM registers; the 6×16 float32
// kernel does the same with 8-wide FMAs. So hosts with AVX2+FMA run the
// same packed path several times faster. On hosts with AVX-512F the 6×16
// float64 and 6×32 float32 kernels (microkernel_avx512_amd64.s) run the
// same plan in ZMM registers, twice as wide again. Feature detection
// happens once at init via CPUID/XGETBV; unsupported hosts keep the
// portable tables.

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
// micro-panels (layout as described in microkernel.go), with C rows ldc
// float32s apart.
//
//go:noescape
func kernel6x16FMA32(kc int, a, b, c *float32, ldc int)

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

// axpyFMA32 and dotFMA32 are axpyFMA and dotFMA on float32 vectors, eight
// lanes per YMM FMA.
//
//go:noescape
func axpyFMA32(alpha float32, x, y *float32, n int)

//go:noescape
func dotFMA32(x, y *float32, n int) float32

// kernel6x16ZMM and kernel6x32ZMM32 are kernel6x8FMA and kernel6x16FMA32
// in ZMM registers: C[0:6, 0:16] (float64) and C[0:6, 0:32] (float32)
// += Ap·Bp, each element of C by the same FMA chain.
//
//go:noescape
func kernel6x16ZMM(kc int, a, b, c *float64, ldc int)

//go:noescape
func kernel6x32ZMM32(kc int, a, b, c *float32, ldc int)

// init fills both kernel tables from one CPUID/XGETBV probe. A second init
// in another file would run in file-name order and could silently replace
// what this one selects, so all selection happens here.
func init() {
	switch hostKernelID() {
	case "avx512":
		kernels64, kernels32 = avx512Kernels()
	case "avx2":
		kernels64, kernels32 = avx2Kernels()
	}
}

// avx2Kernels returns the AVX2+FMA tables. The float32 table has no narrow
// kernels: float32 results carry no width-independence contract, so its
// narrow GEMMs take the packed path.
func avx2Kernels() (kernels[float64], kernels[float32]) {
	k64 := kernels[float64]{
		id: "avx2", mr: 6, nr: 8,
		gemm:       kernelAVX6x8,
		packPanel:  packPanel6[float64],
		narrowCols: 4,
		narrowN: func(m, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
			narrowNFMA(m, k, alpha, &a[0], lda, &b[0], ldb, &c[0], ldc)
		},
		narrowT: func(k int, alpha float64, a []float64, lda int, b []float64, ldb int, acc []float64) {
			narrowTFMA(len(acc), k, alpha, &a[0], lda, &b[0], ldb, &acc[0])
		},
		axpy: func(alpha float64, x, y []float64) { axpyFMA(alpha, &x[0], &y[0], len(x)) },
		dot:  func(x, y []float64) float64 { return dotFMA(&x[0], &y[0], len(x)) },
	}
	k32 := kernels[float32]{
		id: "avx2", mr: 6, nr: 16,
		gemm:      kernelAVX6x16f32,
		packPanel: packPanel6[float32],
		axpy:      func(alpha float32, x, y []float32) { axpyFMA32(alpha, &x[0], &y[0], len(x)) },
		dot:       func(x, y []float32) float32 { return dotFMA32(&x[0], &y[0], len(x)) },
	}
	return k64, k32
}

// avx512Kernels returns the AVX-512 tables: the AVX2 ones with the ZMM
// micro-kernels, their micro-tile widths, and a narrower cut to gemmNarrow
// (the packed path gains more from the wider kernel than the narrow one
// does). MR, the packing and the narrow and level-1 kernels are the AVX2
// ones, so every element rounds as it does under AVX2.
func avx512Kernels() (kernels[float64], kernels[float32]) {
	k64, k32 := avx2Kernels()
	k64.id, k64.gemm, k64.nr, k64.narrowCols = "avx512", kernelZMM6x16, 16, 2
	k32.id, k32.gemm, k32.nr = "avx512", kernelZMM6x32f32, 32
	return k64, k32
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

func kernelZMM6x16(kc int, a, b, c []float64, ldc int) {
	if kc == 0 {
		return
	}
	kernel6x16ZMM(kc, &a[0], &b[0], &c[0], ldc)
}

func kernelZMM6x32f32(kc int, a, b, c []float32, ldc int) {
	if kc == 0 {
		return
	}
	kernel6x32ZMM32(kc, &a[0], &b[0], &c[0], ldc)
}

// hostKernelID names the fastest kernel table the CPU and OS support:
// "avx512" where CPUID reports AVX2, FMA and AVX-512F and XCR0 shows the
// OS saving the XMM, YMM, opmask and ZMM state; "avx2" where it reports
// AVX2 and FMA and the OS saves XMM and YMM state; "portable" otherwise.
// The AVX-512 tables keep the AVX2 narrow and level-1 kernels, so they
// need AVX2+FMA too.
func hostKernelID() string {
	maxLeaf, _, _, _ := cpuidLeaf(0, 0)
	if maxLeaf < 7 {
		return "portable"
	}
	_, _, ecx1, _ := cpuidLeaf(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return "portable"
	}
	// The OS must save/restore XMM and YMM state (XCR0 bits 1-2) across
	// context switches, and for AVX-512 the opmask and both halves of the
	// ZMM state too (bits 5-7).
	const (
		ymmState = 0x6
		zmmState = 0xe6
	)
	xlo, _ := xgetbv0()
	if xlo&ymmState != ymmState {
		return "portable"
	}
	_, ebx7, _, _ := cpuidLeaf(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	switch {
	case ebx7&avx2Bit == 0:
		return "portable"
	case ebx7&avx512fBit != 0 && xlo&zmmState == zmmState:
		return "avx512"
	}
	return "avx2"
}
