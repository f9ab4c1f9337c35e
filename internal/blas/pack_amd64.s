// Packing and scan entries of the AVX-512F kernel tables: the packPanel
// body at both precisions, packB's row copy and the float32 excursion
// scan. Packing only moves elements and scales them by the same IEEE
// product as the Go bodies in pack.go, so every packed element has the
// bits the Go body writes. See microkernel_amd64.go for the wiring.

#include "textflag.h"

// PACK6MERGE merges three row-pair vectors p0, p1, p2 (rows (0,1), (2,3)
// and (4,5) interleaved element by element, a chunk of two per column)
// into three vectors of the MR=6 layout, stored at off, off+64 and
// off+128 from DI: output k takes its chunks from p0 and p1 by the index
// Z18+2k (VPERMT2Q into a copy of p0), then from p2 by Z19+2k.
#define PACK6MERGE(p0, p1, p2, off) \
	VMOVDQA64 p0, Z12; \
	VPERMT2Q  p1, Z18, Z12; \
	VPERMT2Q  p2, Z19, Z12; \
	VMOVDQU64 Z12, off(DI); \
	VMOVDQA64 p0, Z13; \
	VPERMT2Q  p1, Z20, Z13; \
	VPERMT2Q  p2, Z21, Z13; \
	VMOVDQU64 Z13, off+64(DI); \
	VMOVDQA64 p0, Z14; \
	VPERMT2Q  p1, Z22, Z14; \
	VPERMT2Q  p2, Z23, Z14; \
	VMOVDQU64 Z14, off+128(DI)

// PACK6INDEX loads the eight permute-index vectors from AX into Z16..Z23,
// and sets R9 and R10 to three and five row strides R8.
#define PACK6INDEX \
	VMOVDQU64 (AX), Z16; \
	VMOVDQU64 64(AX), Z17; \
	VMOVDQU64 128(AX), Z18; \
	VMOVDQU64 192(AX), Z19; \
	VMOVDQU64 256(AX), Z20; \
	VMOVDQU64 320(AX), Z21; \
	VMOVDQU64 384(AX), Z22; \
	VMOVDQU64 448(AX), Z23; \
	LEAQ      (R8)(R8*2), R9; \
	LEAQ      (R8)(R8*4), R10

// func packN6ZMM(dst, a *float64, lda, n int, alpha float64, idx *[8][16]uint32)
//
// Packs alpha·A[0:6, 0:n] (rows lda float64s apart, n a positive multiple
// of 8) into the MR=6 micro-panel layout, element (i, p) at dst[p*6+i].
// Each block of eight columns loads the six rows and scales them by alpha
// (the element the first source, as in the Go body, so a NaN element keeps
// its payload even against a NaN alpha), pairs rows (0,1), (2,3) and (4,5)
// element by element with VPERMT2Q by idx[0] (columns 0-3) and idx[1]
// (columns 4-7), and merges the pairs' 128-bit chunks into six vectors of
// 48 packed elements (PACK6MERGE). zmmPackIndex builds idx.
TEXT ·packN6ZMM(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ n+24(FP), CX
	VBROADCASTSD alpha+32(FP), Z31
	MOVQ idx+40(FP), AX
	SHLQ $3, R8            // row stride in bytes
	PACK6INDEX

n64loop:
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R8*1), Z1
	VMOVUPD (SI)(R8*2), Z2
	VMOVUPD (SI)(R9*1), Z3
	VMOVUPD (SI)(R8*4), Z4
	VMOVUPD (SI)(R10*1), Z5
	VMULPD Z31, Z0, Z0
	VMULPD Z31, Z1, Z1
	VMULPD Z31, Z2, Z2
	VMULPD Z31, Z3, Z3
	VMULPD Z31, Z4, Z4
	VMULPD Z31, Z5, Z5

	VMOVDQA64 Z0, Z6
	VPERMT2Q  Z1, Z16, Z6  // rows 0,1, columns 0-3
	VPERMT2Q  Z1, Z17, Z0  // columns 4-7
	VMOVDQA64 Z2, Z8
	VPERMT2Q  Z3, Z16, Z8
	VPERMT2Q  Z3, Z17, Z2
	VMOVDQA64 Z4, Z10
	VPERMT2Q  Z5, Z16, Z10
	VPERMT2Q  Z5, Z17, Z4

	PACK6MERGE(Z6, Z8, Z10, 0)
	PACK6MERGE(Z0, Z2, Z4, 192)

	ADDQ $64, SI
	ADDQ $384, DI
	SUBQ $8, CX
	JNZ  n64loop

	VZEROUPPER
	RET

// func packN6ZMM32(dst, a *float32, lda, n int, alpha float32, idx *[8][16]uint32)
//
// packN6ZMM in float32: n a positive multiple of 16, sixteen columns a
// block, rows paired by VPERMT2D (idx[0] columns 0-7, idx[1] columns
// 8-15) and the pairs' 64-bit chunks merged into six vectors of 96 packed
// elements.
TEXT ·packN6ZMM32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ n+24(FP), CX
	VBROADCASTSS alpha+32(FP), Z31
	MOVQ idx+40(FP), AX
	SHLQ $2, R8            // row stride in bytes
	PACK6INDEX

n32loop:
	VMOVUPS (SI), Z0
	VMOVUPS (SI)(R8*1), Z1
	VMOVUPS (SI)(R8*2), Z2
	VMOVUPS (SI)(R9*1), Z3
	VMOVUPS (SI)(R8*4), Z4
	VMOVUPS (SI)(R10*1), Z5
	VMULPS Z31, Z0, Z0
	VMULPS Z31, Z1, Z1
	VMULPS Z31, Z2, Z2
	VMULPS Z31, Z3, Z3
	VMULPS Z31, Z4, Z4
	VMULPS Z31, Z5, Z5

	VMOVDQA64 Z0, Z6
	VPERMT2D  Z1, Z16, Z6  // rows 0,1, columns 0-7
	VPERMT2D  Z1, Z17, Z0  // columns 8-15
	VMOVDQA64 Z2, Z8
	VPERMT2D  Z3, Z16, Z8
	VPERMT2D  Z3, Z17, Z2
	VMOVDQA64 Z4, Z10
	VPERMT2D  Z5, Z16, Z10
	VPERMT2D  Z5, Z17, Z4

	PACK6MERGE(Z6, Z8, Z10, 0)
	PACK6MERGE(Z0, Z2, Z4, 192)

	ADDQ $64, SI
	ADDQ $384, DI
	SUBQ $16, CX
	JNZ  n32loop

	VZEROUPPER
	RET

// func packT6ZMM(dst, a *float64, lda, kc int, alpha float64)
//
// Packs alpha·A[0:kc, 0:6]ᵀ (rows lda float64s apart, kc > 0) into the
// MR=6 micro-panel layout: packed column p is the first six elements of
// row p of A, loaded, scaled (the element the first source, as in the Go
// body) and stored as six lanes under the mask 0x3f.
TEXT ·packT6ZMM(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ kc+24(FP), CX
	VBROADCASTSD alpha+32(FP), Z31
	SHLQ $3, R8
	MOVL $0x3f, AX
	KMOVW AX, K1

t64loop:
	VMOVUPD.Z (SI), K1, Z0
	VMULPD    Z31, Z0, Z0
	VMOVUPD   Z0, K1, (DI)
	ADDQ      R8, SI
	ADDQ      $48, DI
	DECQ      CX
	JNZ       t64loop

	VZEROUPPER
	RET

// func packT6ZMM32(dst, a *float32, lda, kc int, alpha float32)
//
// packT6ZMM in float32: six float32 lanes per packed column.
TEXT ·packT6ZMM32(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ kc+24(FP), CX
	VBROADCASTSS alpha+32(FP), Z31
	SHLQ $2, R8
	MOVL $0x3f, AX
	KMOVW AX, K1

t32loop:
	VMOVUPS.Z (SI), K1, Z0
	VMULPS    Z31, Z0, Z0
	VMOVUPS   Z0, K1, (DI)
	ADDQ      R8, SI
	ADDQ      $24, DI
	DECQ      CX
	JNZ       t32loop

	VZEROUPPER
	RET

// func packRows128(dst, src unsafe.Pointer, lds, rows int)
//
// Copies rows > 0 rows of 128 bytes, lds bytes apart at src, to dst
// back to back: one full NR-wide micro-panel of packB's, 16 float64 or 32
// float32 columns a row.
TEXT ·packRows128(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lds+16(FP), R8
	MOVQ rows+24(FP), CX

rowloop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ      R8, SI
	ADDQ      $128, DI
	DECQ      CX
	JNZ       rowloop

	VZEROUPPER
	RET

// func above32ZMM(x *float32, n int, ceil uint32) bool
//
// Reports whether any of x[0:n], with its sign bit cleared, has a bit
// pattern above ceil as an unsigned integer. Sixty-four elements a
// block: VPANDD clears the signs, VPCMPUD compares above ceil, KORW folds
// the four masks and KORTESTW tests them; the last n mod 16 elements load
// under a mask.
TEXT ·above32ZMM(SB), NOSPLIT, $0-25
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL ceil+16(FP), AX
	VPBROADCASTD AX, Z1
	MOVL $0x7fffffff, AX
	VPBROADCASTD AX, Z2

	CMPQ CX, $64
	JB   scan16

scan64:
	VPANDD  (SI), Z2, Z3
	VPANDD  64(SI), Z2, Z4
	VPANDD  128(SI), Z2, Z5
	VPANDD  192(SI), Z2, Z6
	VPCMPUD $6, Z1, Z3, K1 // K1 = Z3 > Z1, unsigned
	VPCMPUD $6, Z1, Z4, K2
	VPCMPUD $6, Z1, Z5, K3
	VPCMPUD $6, Z1, Z6, K4
	KORW    K1, K2, K1
	KORW    K3, K4, K3
	KORTESTW K1, K3
	JNZ     found
	ADDQ    $256, SI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     scan64

scan16:
	CMPQ CX, $16
	JB   tail
	VPANDD  (SI), Z2, Z3
	VPCMPUD $6, Z1, Z3, K1
	KORTESTW K1, K1
	JNZ     found
	ADDQ    $64, SI
	SUBQ    $16, CX
	JMP     scan16

tail:
	TESTQ CX, CX
	JZ    none
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K2
	VMOVDQU32.Z (SI), K2, Z3
	VPANDD  Z3, Z2, Z3
	VPCMPUD $6, Z1, Z3, K2, K1
	KORTESTW K1, K1
	JNZ     found

none:
	MOVB $0, ret+24(FP)
	VZEROUPPER
	RET

found:
	MOVB $1, ret+24(FP)
	VZEROUPPER
	RET
