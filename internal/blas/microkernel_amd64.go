package blas

import (
	"unsafe"

	"luqr/internal/mat"
)

// SIMD kernel selection. Go's default amd64 codegen targets the GOAMD64=v1
// baseline (scalar SSE2), whose ~2 FP ops/cycle ceiling caps a pure-Go GEMM
// near 3 GFLOP/s on the paper-class hosts. The 6×8 float64 assembly kernel
// (microkernel_amd64.s) issues two 4-wide FMAs per packed A element and
// keeps the whole 6×8 accumulator block in YMM registers; the 6×16 float32
// kernel does the same with 8-wide FMAs. So hosts with AVX2+FMA run the
// same packed path several times faster. On hosts with AVX-512F the 6×16
// float64 and 6×32 float32 kernels (microkernel_avx512_amd64.s) run the
// same plan in ZMM registers, twice as wide again. The packing around them
// and the float32 excursion scan have SIMD entries too (pack_amd64.s).
// Feature detection happens once at init via CPUID/XGETBV; unsupported
// hosts keep the portable tables.

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

// packN6ZMM and packN6ZMM32 pack alpha·A[0:6, 0:n] into the MR=6
// micro-panel layout (packPanel6's op(A) = A), n a positive multiple of 8
// (float64) or 16 (float32), through the permutes idx (zmmPackIndex).
// packT6ZMM and packT6ZMM32 pack alpha·A[0:kc, 0:6]ᵀ (op(A) = Aᵀ), kc > 0.
// A has rows lda elements apart.
//
//go:noescape
func packN6ZMM(dst, a *float64, lda, n int, alpha float64, idx *[8][16]uint32)

//go:noescape
func packN6ZMM32(dst, a *float32, lda, n int, alpha float32, idx *[8][16]uint32)

//go:noescape
func packT6ZMM(dst, a *float64, lda, kc int, alpha float64)

//go:noescape
func packT6ZMM32(dst, a *float32, lda, kc int, alpha float32)

// packRows128 copies rows > 0 rows of 128 bytes, lds bytes apart at src, to
// dst back to back.
//
//go:noescape
func packRows128(dst, src unsafe.Pointer, lds, rows int)

// above32ZMM is Above32 on x[0:n] in ZMM registers.
//
//go:noescape
func above32ZMM(x *float32, n int, ceil uint32) bool

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
// narrow GEMMs take the packed path. Packing and the float32 excursion
// scan run the Go bodies.
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
// micro-kernels, their micro-tile widths, the ZMM packing entries, the
// float32 excursion scan, and a narrower cut to gemmNarrow (the packed
// path gains more from the wider kernel than the narrow one does). MR,
// the packed layout and the narrow and level-1 kernels are the AVX2 ones,
// and packing only moves and scales elements, so every element rounds as
// it does under AVX2.
func avx512Kernels() (kernels[float64], kernels[float32]) {
	k64, k32 := avx2Kernels()
	k64.id, k64.gemm, k64.nr, k64.narrowCols = "avx512", kernelZMM6x16, 16, 2
	k32.id, k32.gemm, k32.nr = "avx512", kernelZMM6x32f32, 32
	k64.packPanel = zmmPackPanel(8, packN6ZMM, packT6ZMM)
	k32.packPanel = zmmPackPanel(16, packN6ZMM32, packT6ZMM32)
	k64.packRows, k32.packRows = packRowsZMM[float64], packRowsZMM[float32]
	k32.above32 = func(x []float32, ceil uint32) bool {
		return len(x) > 0 && above32ZMM(&x[0], len(x), ceil)
	}
	return k64, k32
}

// zmmPackPanel returns the AVX-512 packPanel entry of a 6-tall table on the
// assembly bodies blockN (op(A) = A, in whole blocks of w columns) and colT
// (op(A) = Aᵀ). packPanel6 packs the columns past the last whole block.
func zmmPackPanel[T mat.Float](w int, blockN func(dst, a *T, lda, n int, alpha T, idx *[8][16]uint32), colT func(dst, a *T, lda, kc int, alpha T)) func(dst, a []T, lda int, transA Transpose, alpha T, i, p0, kc int) {
	idx := zmmPackIndex(int(unsafe.Sizeof(T(0))))
	return func(dst, a []T, lda int, transA Transpose, alpha T, i, p0, kc int) {
		if kc == 0 {
			return
		}
		dst = dst[:6*kc]
		if transA == Trans {
			_ = a[(p0+kc-1)*lda+i+5]
			colT(&dst[0], &a[p0*lda+i], lda, kc, alpha)
			return
		}
		n := kc / w * w
		if n > 0 {
			_ = a[(i+5)*lda+p0+n-1]
			blockN(&dst[0], &a[i*lda+p0], lda, n, alpha, &idx)
		}
		if n < kc {
			packPanel6(dst[6*n:], a, lda, NoTrans, alpha, i, p0+n, kc-n)
		}
	}
}

// zmmPackIndex returns the permute indices of packN6ZMM (size 8) or
// packN6ZMM32 (size 4), one ZMM vector each, as dwords: an element index
// of the type fills s = size/4 dwords, a qword index its low half. A block
// holds L = 64/size columns of the six rows. idx[0] and idx[1] pair two
// rows x, y element by element (VPERMT2Q or VPERMT2D): x0 y0 x1 y1 … over
// columns [0, L/2) and [L/2, L). A pair of one column is then a chunk of s
// qwords, w = L/2 chunks a vector. Output vector k < 3 of each half holds
// the packed chunks q = k·w + t, t < w: column c = q/3's pair j = q%3, of
// rows (2j, 2j+1). idx[2+2k] (VPERMT2Q) takes the chunks with j < 2 from
// the vectors of rows (0,1) and (2,3), and idx[3+2k] those with j = 2 from
// the vector of rows (4,5), keeping the rest in place.
func zmmPackIndex(size int) (idx [8][16]uint32) {
	l, s := 64/size, size/4
	w := l / 2
	elem := func(v *[16]uint32, e, val int) { v[e*s] = uint32(val) }
	for m := 0; m < w; m++ {
		elem(&idx[0], 2*m, m)
		elem(&idx[0], 2*m+1, l+m)
		elem(&idx[1], 2*m, w+m)
		elem(&idx[1], 2*m+1, l+w+m)
	}
	for k := 0; k < 3; k++ {
		for t := 0; t < w; t++ {
			c, j := (k*w+t)/3, (k*w+t)%3
			for h := 0; h < s; h++ {
				from01, from45 := c*s+h, t*s+h
				if j == 1 {
					from01 += 8
				}
				if j == 2 {
					from45 = 8 + c*s + h
				}
				idx[2+2*k][2*(t*s+h)] = uint32(from01)
				idx[3+2*k][2*(t*s+h)] = uint32(from45)
			}
		}
	}
	return idx
}

// packRowsZMM is the AVX-512 tables' packRows entry: a full micro-panel's
// row is 128 bytes at either precision (NR = 16 float64 or 32 float32).
// Through copy each row would cost a runtime.memmove call.
func packRowsZMM[T mat.Float](dst, b []T, ldb, kc int) {
	if kc == 0 {
		return
	}
	size := int(unsafe.Sizeof(b[0]))
	w := 128 / size
	_ = b[(kc-1)*ldb+w-1]
	_ = dst[kc*w-1]
	packRows128(unsafe.Pointer(&dst[0]), unsafe.Pointer(&b[0]), ldb*size, kc)
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
