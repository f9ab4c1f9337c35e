// AVX2+FMA GEMM micro-kernel and CPU feature probes. See microkernel.go for
// the packed-panel layout contract and microkernel_amd64.go for selection.

#include "textflag.h"

// func cpuidLeaf(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func kernel6x8FMA(kc int, a, b, c *float64, ldc int)
//
// C[0:6, 0:8] += Ap·Bp over kc rank-1 updates. Ap is the packed MR=6 panel
// (element (i,p) at a[p*6+i]), Bp the packed NR=8 panel (element (p,j) at
// b[p*8+j]), and C has rows ldc float64s apart.
//
// Register plan: Y0..Y11 hold the 6×8 accumulator block (two YMM per row of
// the micro-tile), Y12/Y13 the current 8-wide B row, Y14 the broadcast A
// element. Each iteration of the kc loop performs 2 loads, 6 broadcasts and
// 12 FMAs (96 flops).
TEXT ·kernel6x8FMA(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // C row stride in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ DX, DX
	JZ    done

loop:
	VMOVUPD (BX), Y12
	VMOVUPD 32(BX), Y13

	VBROADCASTSD (SI), Y14
	VFMADD231PD Y14, Y12, Y0
	VFMADD231PD Y14, Y13, Y1

	VBROADCASTSD 8(SI), Y14
	VFMADD231PD Y14, Y12, Y2
	VFMADD231PD Y14, Y13, Y3

	VBROADCASTSD 16(SI), Y14
	VFMADD231PD Y14, Y12, Y4
	VFMADD231PD Y14, Y13, Y5

	VBROADCASTSD 24(SI), Y14
	VFMADD231PD Y14, Y12, Y6
	VFMADD231PD Y14, Y13, Y7

	VBROADCASTSD 32(SI), Y14
	VFMADD231PD Y14, Y12, Y8
	VFMADD231PD Y14, Y13, Y9

	VBROADCASTSD 40(SI), Y14
	VFMADD231PD Y14, Y12, Y10
	VFMADD231PD Y14, Y13, Y11

	ADDQ $48, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  loop

done:
	// C += accumulators, row by row.
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y0, Y12, Y12
	VADDPD  Y1, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y2, Y12, Y12
	VADDPD  Y3, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y4, Y12, Y12
	VADDPD  Y5, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y6, Y12, Y12
	VADDPD  Y7, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y8, Y12, Y12
	VADDPD  Y9, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	VADDPD  Y10, Y12, Y12
	VADDPD  Y11, Y13, Y13
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)

	VZEROUPPER
	RET

// func kernel6x16FMA32(kc int, a, b, c *float32, ldc int)
//
// Float32 companion of kernel6x8FMA: C[0:6, 0:16] += Ap·Bp over kc rank-1
// updates. Ap is the packed MR=6 float32 panel (element (i,p) at a[p*6+i]),
// Bp the packed NR=16 panel (element (p,j) at b[p*16+j]), and C has rows ldc
// float32s apart.
//
// Register plan mirrors the f64 kernel — Y0..Y11 the 6×16 accumulator block
// (two YMM per micro-tile row, now 8 floats each), Y12/Y13 the current
// 16-wide B row, Y14 the broadcast A element — but every FMA retires 8
// float32 lanes instead of 4 float64 lanes: 2 loads, 6 broadcasts, 12 FMAs
// and 192 flops per kc iteration.
TEXT ·kernel6x16FMA32(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8            // C row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	TESTQ DX, DX
	JZ    done32

loop32:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13

	VBROADCASTSS (SI), Y14
	VFMADD231PS Y14, Y12, Y0
	VFMADD231PS Y14, Y13, Y1

	VBROADCASTSS 4(SI), Y14
	VFMADD231PS Y14, Y12, Y2
	VFMADD231PS Y14, Y13, Y3

	VBROADCASTSS 8(SI), Y14
	VFMADD231PS Y14, Y12, Y4
	VFMADD231PS Y14, Y13, Y5

	VBROADCASTSS 12(SI), Y14
	VFMADD231PS Y14, Y12, Y6
	VFMADD231PS Y14, Y13, Y7

	VBROADCASTSS 16(SI), Y14
	VFMADD231PS Y14, Y12, Y8
	VFMADD231PS Y14, Y13, Y9

	VBROADCASTSS 20(SI), Y14
	VFMADD231PS Y14, Y12, Y10
	VFMADD231PS Y14, Y13, Y11

	ADDQ $24, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  loop32

done32:
	// C += accumulators, row by row.
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y0, Y12, Y12
	VADDPS  Y1, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y2, Y12, Y12
	VADDPS  Y3, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y4, Y12, Y12
	VADDPS  Y5, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y6, Y12, Y12
	VADDPS  Y7, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y8, Y12, Y12
	VADDPS  Y9, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VADDPS  Y10, Y12, Y12
	VADDPS  Y11, Y13, Y13
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, 32(DI)

	VZEROUPPER
	RET

// func cvtRowAVX(dst *float32, src *float64, n int)
//
// dst[0:n] = float32(src[0:n]): eight conversions per iteration through two
// VCVTPD2PS (4 float64 → 4 float32 each), scalar tail.
TEXT ·cvtRowAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   cvttail

cvtloop8:
	VMOVUPD    (SI), Y1
	VMOVUPD    32(SI), Y2
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VMOVUPS    X1, (DI)
	VMOVUPS    X2, 16(DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        cvtloop8

cvttail:
	ANDQ $7, CX
	JZ   cvtdone

cvtscalar:
	VCVTSD2SS (SI), X1, X1
	VMOVSS    X1, (DI)
	ADDQ      $8, SI
	ADDQ      $4, DI
	DECQ      CX
	JNZ       cvtscalar

cvtdone:
	VZEROUPPER
	RET

// func cvtScaleStrideAVX(dst *float32, stride int, src *float64, alpha float32, n int)
//
// dst[i*stride] = alpha·float32(src[i]) for i in [0, n): four conversions
// per VCVTPD2PS with the strided scatter done by VEXTRACTPS stores. This is
// the packA32 inner loop — src is a contiguous A row, dst a column of an
// MR-tall micro-panel.
TEXT ·cvtScaleStrideAVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         stride+8(FP), R9
	MOVQ         src+16(FP), SI
	VBROADCASTSS alpha+24(FP), X0
	MOVQ         n+32(FP), CX
	SHLQ         $2, R9            // dst stride in bytes
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           csstail

cssloop4:
	VMOVUPD    (SI), Y1
	VCVTPD2PSY Y1, X1
	VMULPS     X0, X1, X1
	VMOVSS     X1, (DI)
	ADDQ       R9, DI
	VEXTRACTPS $1, X1, (DI)
	ADDQ       R9, DI
	VEXTRACTPS $2, X1, (DI)
	ADDQ       R9, DI
	VEXTRACTPS $3, X1, (DI)
	ADDQ       R9, DI
	ADDQ       $32, SI
	DECQ       DX
	JNZ        cssloop4

csstail:
	ANDQ $3, CX
	JZ   cssdone

cssscalar:
	VCVTSD2SS (SI), X1, X1
	VMULSS    X0, X1, X1
	VMOVSS    X1, (DI)
	ADDQ      R9, DI
	ADDQ      $8, SI
	DECQ      CX
	JNZ       cssscalar

cssdone:
	VZEROUPPER
	RET

// func axpyFMA(alpha float64, x, y *float64, n int)
//
// y[0:n] += alpha·x[0:n], 16 elements per iteration (4 YMM FMAs with the x
// operand taken straight from memory), scalar tail.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   tail

loop16:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  loop16

tail:
	ANDQ $15, CX
	JZ   axpydone

scalar:
	VMOVSD (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  scalar

axpydone:
	VZEROUPPER
	RET

// func dotFMA(x, y *float64, n int) float64
//
// Returns xᵀy with 4 independent YMM accumulators (16 elements/iteration).
TEXT ·dotFMA(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dottail

dotloop:
	VMOVUPD (SI), Y5
	VMOVUPD 32(SI), Y6
	VMOVUPD 64(SI), Y7
	VMOVUPD 96(SI), Y8
	VFMADD231PD (DI), Y5, Y1
	VFMADD231PD 32(DI), Y6, Y2
	VFMADD231PD 64(DI), Y7, Y3
	VFMADD231PD 96(DI), Y8, Y4
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  dotloop

dottail:
	VADDPD Y2, Y1, Y1
	VADDPD Y4, Y3, Y3
	VADDPD Y3, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD X2, X1, X1
	VHADDPD X1, X1, X1
	ANDQ $15, CX
	JZ   dotdone

dotscalar:
	VMOVSD (SI), X5
	VFMADD231SD (DI), X5, X1
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dotscalar

dotdone:
	VMOVSD X1, ret+24(FP)
	VZEROUPPER
	RET

// func narrowNFMA(m, k int, alpha float64, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)
//
// The narrow GEMM path for op(A) = A (see narrowNGeneric): for each of the
// m rows i of A, c[i*ldc] += Σ_p (alpha·a[i*lda+p])·b[p*ldb] over p < k.
// Each row's sum is one scalar FMA chain from zero in p order, with the FMA
// operands and the final C + sum in kernel6x8FMA's order, so every element
// rounds exactly as it would in the packed path. Four rows run at once so
// their chains overlap.
TEXT ·narrowNFMA(SB), NOSPLIT, $0-72
	MOVQ   m+0(FP), CX
	MOVQ   k+8(FP), R8
	VMOVSD alpha+16(FP), X0
	MOVQ   a+24(FP), SI
	MOVQ   lda+32(FP), DX
	MOVQ   b+40(FP), R9
	MOVQ   ldb+48(FP), R10
	MOVQ   c+56(FP), DI
	MOVQ   ldc+64(FP), R11
	SHLQ   $3, DX               // A row stride in bytes
	SHLQ   $3, R10              // B row stride in bytes
	SHLQ   $3, R11              // C row stride in bytes
	LEAQ   (DX)(DX*2), BX       // three A rows
	TESTQ  R8, R8
	JZ     nndone

nnrows4:
	CMPQ   CX, $4
	JLT    nnrows1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	MOVQ   SI, AX
	MOVQ   R9, R12
	MOVQ   R8, R13

nnloop4:
	VMOVSD      (R12), X1
	VMULSD      (AX), X0, X6
	VMULSD      (AX)(DX*1), X0, X7
	VMULSD      (AX)(DX*2), X0, X8
	VMULSD      (AX)(BX*1), X0, X9
	VFMADD231SD X6, X1, X2
	VFMADD231SD X7, X1, X3
	VFMADD231SD X8, X1, X4
	VFMADD231SD X9, X1, X5
	ADDQ        $8, AX
	ADDQ        R10, R12
	DECQ        R13
	JNZ         nnloop4

	LEAQ   (R11)(R11*2), R13    // three C rows
	VMOVSD (DI), X6
	VADDSD X2, X6, X6
	VMOVSD X6, (DI)
	VMOVSD (DI)(R11*1), X7
	VADDSD X3, X7, X7
	VMOVSD X7, (DI)(R11*1)
	VMOVSD (DI)(R11*2), X8
	VADDSD X4, X8, X8
	VMOVSD X8, (DI)(R11*2)
	VMOVSD (DI)(R13*1), X9
	VADDSD X5, X9, X9
	VMOVSD X9, (DI)(R13*1)
	LEAQ   (SI)(DX*4), SI
	LEAQ   (DI)(R11*4), DI
	SUBQ   $4, CX
	JMP    nnrows4

nnrows1:
	TESTQ CX, CX
	JZ    nndone

nnrow:
	VXORPD X2, X2, X2
	MOVQ   SI, AX
	MOVQ   R9, R12
	MOVQ   R8, R13

nnloop1:
	VMOVSD      (R12), X1
	VMULSD      (AX), X0, X6
	VFMADD231SD X6, X1, X2
	ADDQ        $8, AX
	ADDQ        R10, R12
	DECQ        R13
	JNZ         nnloop1

	VMOVSD (DI), X6
	VADDSD X2, X6, X6
	VMOVSD X6, (DI)
	ADDQ   DX, SI
	ADDQ   R11, DI
	DECQ   CX
	JNZ    nnrow

nndone:
	RET

// func narrowTFMA(m, k int, alpha float64, a *float64, lda int, b *float64, ldb int, acc *float64)
//
// The narrow GEMM path for op(A) = Aᵀ (see narrowTGeneric): for p < k,
// acc[i] += (alpha·a[p*lda+i])·b[p*ldb] for i < m, fused, with the FMA
// operands in kernel6x8FMA's order. Row p of A is contiguous, so four
// independent chains share each YMM FMA; the m%4 tail runs scalar.
TEXT ·narrowTFMA(SB), NOSPLIT, $0-64
	MOVQ         m+0(FP), CX
	MOVQ         k+8(FP), R8
	VBROADCASTSD alpha+16(FP), Y0
	MOVQ         a+24(FP), SI
	MOVQ         lda+32(FP), DX
	MOVQ         b+40(FP), R9
	MOVQ         ldb+48(FP), R10
	MOVQ         acc+56(FP), DI
	SHLQ         $3, DX         // A row stride in bytes
	SHLQ         $3, R10        // B row stride in bytes
	TESTQ        R8, R8
	JZ           ntdone

ntrow:
	VBROADCASTSD (R9), Y1
	MOVQ         SI, AX
	MOVQ         DI, BX
	MOVQ         CX, R11
	SHRQ         $2, R11
	JZ           nttail

ntloop4:
	VMULPD      (AX), Y0, Y2
	VMOVUPD     (BX), Y3
	VFMADD231PD Y2, Y1, Y3
	VMOVUPD     Y3, (BX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        R11
	JNZ         ntloop4

nttail:
	MOVQ CX, R11
	ANDQ $3, R11
	JZ   ntnext

ntscalar:
	VMULSD      (AX), X0, X2
	VMOVSD      (BX), X3
	VFMADD231SD X2, X1, X3
	VMOVSD      X3, (BX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        R11
	JNZ         ntscalar

ntnext:
	ADDQ DX, SI
	ADDQ R10, R9
	DECQ R8
	JNZ  ntrow

ntdone:
	VZEROUPPER
	RET
