// AVX-512F GEMM micro-kernels: the AVX2 kernels of microkernel_amd64.s
// widened from YMM to ZMM registers, with the same register plan, the same
// FMA operand order and the same C + accumulator update, so every element
// of C rounds exactly as it does there. See microkernel.go for the
// packed-panel layout contract and microkernel_amd64.go for selection.

#include "textflag.h"

// func kernel6x16ZMM(kc int, a, b, c *float64, ldc int)
//
// C[0:6, 0:16] += Ap·Bp over kc rank-1 updates. Ap is the packed MR=6 panel
// (element (i,p) at a[p*6+i]), Bp the packed NR=16 panel (element (p,j) at
// b[p*16+j]), and C has rows ldc float64s apart.
//
// Register plan: kernel6x8FMA's, one register width up. Z0..Z11 hold the
// 6×16 accumulator block (two ZMM per row of the micro-tile), Z12/Z13 the
// current 16-wide B row, Z14 the broadcast A element. Each iteration of the
// kc loop performs 2 loads, 6 broadcasts and 12 FMAs (192 flops).
TEXT ·kernel6x16ZMM(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // C row stride in bytes

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

	TESTQ DX, DX
	JZ    z64done

z64loop:
	VMOVUPD (BX), Z12
	VMOVUPD 64(BX), Z13

	VBROADCASTSD (SI), Z14
	VFMADD231PD Z14, Z12, Z0
	VFMADD231PD Z14, Z13, Z1

	VBROADCASTSD 8(SI), Z14
	VFMADD231PD Z14, Z12, Z2
	VFMADD231PD Z14, Z13, Z3

	VBROADCASTSD 16(SI), Z14
	VFMADD231PD Z14, Z12, Z4
	VFMADD231PD Z14, Z13, Z5

	VBROADCASTSD 24(SI), Z14
	VFMADD231PD Z14, Z12, Z6
	VFMADD231PD Z14, Z13, Z7

	VBROADCASTSD 32(SI), Z14
	VFMADD231PD Z14, Z12, Z8
	VFMADD231PD Z14, Z13, Z9

	VBROADCASTSD 40(SI), Z14
	VFMADD231PD Z14, Z12, Z10
	VFMADD231PD Z14, Z13, Z11

	ADDQ $48, SI
	ADDQ $128, BX
	DECQ DX
	JNZ  z64loop

z64done:
	// C += accumulators, row by row.
	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z0, Z12, Z12
	VADDPD  Z1, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z2, Z12, Z12
	VADDPD  Z3, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z4, Z12, Z12
	VADDPD  Z5, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z6, Z12, Z12
	VADDPD  Z7, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z8, Z12, Z12
	VADDPD  Z9, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPD (DI), Z12
	VMOVUPD 64(DI), Z13
	VADDPD  Z10, Z12, Z12
	VADDPD  Z11, Z13, Z13
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, 64(DI)

	VZEROUPPER
	RET

// func kernel6x32ZMM32(kc int, a, b, c *float32, ldc int)
//
// Float32 companion of kernel6x16ZMM: C[0:6, 0:32] += Ap·Bp over kc rank-1
// updates. Ap is the packed MR=6 float32 panel (element (i,p) at a[p*6+i]),
// Bp the packed NR=32 panel (element (p,j) at b[p*32+j]), and C has rows ldc
// float32s apart. Register plan as kernel6x16FMA32's, in ZMM: 2 loads,
// 6 broadcasts, 12 FMAs of 16 lanes and 384 flops per kc iteration.
TEXT ·kernel6x32ZMM32(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8            // C row stride in bytes

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

	TESTQ DX, DX
	JZ    z32done

z32loop:
	VMOVUPS (BX), Z12
	VMOVUPS 64(BX), Z13

	VBROADCASTSS (SI), Z14
	VFMADD231PS Z14, Z12, Z0
	VFMADD231PS Z14, Z13, Z1

	VBROADCASTSS 4(SI), Z14
	VFMADD231PS Z14, Z12, Z2
	VFMADD231PS Z14, Z13, Z3

	VBROADCASTSS 8(SI), Z14
	VFMADD231PS Z14, Z12, Z4
	VFMADD231PS Z14, Z13, Z5

	VBROADCASTSS 12(SI), Z14
	VFMADD231PS Z14, Z12, Z6
	VFMADD231PS Z14, Z13, Z7

	VBROADCASTSS 16(SI), Z14
	VFMADD231PS Z14, Z12, Z8
	VFMADD231PS Z14, Z13, Z9

	VBROADCASTSS 20(SI), Z14
	VFMADD231PS Z14, Z12, Z10
	VFMADD231PS Z14, Z13, Z11

	ADDQ $24, SI
	ADDQ $128, BX
	DECQ DX
	JNZ  z32loop

z32done:
	// C += accumulators, row by row.
	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z0, Z12, Z12
	VADDPS  Z1, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z2, Z12, Z12
	VADDPS  Z3, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z4, Z12, Z12
	VADDPS  Z5, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z6, Z12, Z12
	VADDPS  Z7, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z8, Z12, Z12
	VADDPS  Z9, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ    R8, DI

	VMOVUPS (DI), Z12
	VMOVUPS 64(DI), Z13
	VADDPS  Z10, Z12, Z12
	VADDPS  Z11, Z13, Z13
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)

	VZEROUPPER
	RET
