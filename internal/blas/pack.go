package blas

import "luqr/internal/mat"

// BLIS-style cache blocking for the packed GEMM (see Van Zee & van de Geijn,
// "BLIS: A Framework for Rapidly Instantiating BLAS Functionality"):
//
//	for jc over N by NC:    B panel  (KC×NC)   lives in L3
//	  for pc over K by KC:    pack B
//	    for ic over M by MC:  A block  (MC×KC)  lives in L2, pack A
//	      for jr over NC by NR:  B micro-panel (KC×NR) lives in L1
//	        for ir over MC by MR:  micro-kernel on an MR×NR tile of C
//
// Packing rewrites both operands into the exact streaming order the
// micro-kernel consumes — MR-tall column-major A panels, NR-wide row-major
// B panels — which also absorbs the transpose variants: op(A)/op(B) differ
// only in which loops of the pack run contiguously, and the kernel never
// sees a stride. alpha is folded into the packed A so the kernel is a pure
// C += Ap·Bp. Fringe panels are zero-padded to full MR/NR, so the kernel
// handles every shape; only fringe tiles of C take a scratch-tile detour
// (level3.go).
const (
	// gemmKC: packed A micro-panels are MR×KC and must stay L1-resident
	// while a B micro-panel streams against them.
	gemmKC = 256
	// gemmMC: the packed A block is MC×KC ≈ 270 KiB of float64, sized for
	// L2. A multiple of every micro-tile height (lcm(4, 6) = 12).
	gemmMC = 132
	// gemmNC: the packed B panel is KC×NC ≤ 1 MiB. A multiple of every
	// micro-tile width (4, 8, 16 and 32).
	gemmNC = 512
)

func roundUp(n, q int) int { return (n + q - 1) / q * q }

// packA packs op(A)[i0:i0+mc, p0:p0+kc], scaled by alpha, into MR-tall
// column-major micro-panels: element (ir+i, p) of the block lands at
// buf[ir*kc + p*mr + i]. A full panel goes through the table's packPanel,
// the fixed-height body beside the micro-kernel it feeds; a fringe panel is
// zero-filled past mc so every micro-panel is a full MR tall.
func packA[T mat.Float](kt *kernels[T], buf []T, a *mat.Dense[T], transA Transpose, alpha T, i0, p0, mc, kc int) {
	mr := kt.mr
	for ir := 0; ir < mc; ir += mr {
		dst := buf[ir*kc:][:mr*kc]
		if rows := mc - ir; rows < mr {
			packFringe(dst, a, transA, alpha, i0+ir, p0, rows, kc, mr)
			continue
		}
		kt.packPanel(dst, a.Data, a.Stride, transA, alpha, i0+ir, p0, kc)
	}
}

// packFringe packs the rows < mr rows of op(A) from (i, p0) over kc columns
// into one mr-tall micro-panel, zero below them.
func packFringe[T mat.Float](dst []T, a *mat.Dense[T], transA Transpose, alpha T, i, p0, rows, kc, mr int) {
	for p := 0; p < kc; p++ {
		d := dst[p*mr:][:mr]
		for r := range d {
			d[r] = 0
			if r >= rows {
				continue
			}
			if transA == NoTrans {
				d[r] = alpha * a.Data[(i+r)*a.Stride+p0+p]
			} else {
				d[r] = alpha * a.Data[(p0+p)*a.Stride+i+r]
			}
		}
	}
}

// packPanel4 and packPanel6 are the portable and AVX2 tables' packPanel
// entries, and packPanel6 packs the AVX-512 entry's kc tail: each packs
// one full micro-panel of its height, op(A) rows [i, i+mr) over the kc
// columns from p0, scaled by alpha, writing each packed column's mr
// elements together. op(A) = A reads the mr rows side by side; op(A) = Aᵀ
// reads each packed column from one row of A, which with the height fixed
// packs a 192×192 block of Aᵀ about twice as fast as a loop over a variable
// height, at either precision.
func packPanel4[T mat.Float](dst, a []T, lda int, transA Transpose, alpha T, i, p0, kc int) {
	dst = dst[:4*kc]
	if transA == NoTrans {
		r0 := a[i*lda+p0:][:kc]
		r1 := a[(i+1)*lda+p0:][:kc]
		r2 := a[(i+2)*lda+p0:][:kc]
		r3 := a[(i+3)*lda+p0:][:kc]
		for p := range r0 {
			d := dst[4*p : 4*p+4 : 4*p+4]
			d[0], d[1], d[2], d[3] = alpha*r0[p], alpha*r1[p], alpha*r2[p], alpha*r3[p]
		}
		return
	}
	for p := 0; p < kc; p++ {
		s := a[(p0+p)*lda+i:][:4]
		d := dst[4*p : 4*p+4 : 4*p+4]
		d[0], d[1], d[2], d[3] = alpha*s[0], alpha*s[1], alpha*s[2], alpha*s[3]
	}
}

func packPanel6[T mat.Float](dst, a []T, lda int, transA Transpose, alpha T, i, p0, kc int) {
	dst = dst[:6*kc]
	if transA == NoTrans {
		r0 := a[i*lda+p0:][:kc]
		r1 := a[(i+1)*lda+p0:][:kc]
		r2 := a[(i+2)*lda+p0:][:kc]
		r3 := a[(i+3)*lda+p0:][:kc]
		r4 := a[(i+4)*lda+p0:][:kc]
		r5 := a[(i+5)*lda+p0:][:kc]
		for p := range r0 {
			d := dst[6*p : 6*p+6 : 6*p+6]
			d[0], d[1], d[2], d[3], d[4], d[5] = alpha*r0[p], alpha*r1[p], alpha*r2[p], alpha*r3[p], alpha*r4[p], alpha*r5[p]
		}
		return
	}
	for p := 0; p < kc; p++ {
		s := a[(p0+p)*lda+i:][:6]
		d := dst[6*p : 6*p+6 : 6*p+6]
		d[0], d[1], d[2], d[3], d[4], d[5] = alpha*s[0], alpha*s[1], alpha*s[2], alpha*s[3], alpha*s[4], alpha*s[5]
	}
}

// packB packs op(B)[p0:p0+kc, j0:j0+nc] into NR-wide row-major micro-panels:
// element (p, jr+j) of the block lands at buf[jr*kc + p*nr + j]. Columns
// past nc are zero-filled so every micro-panel is a full NR wide. A full
// panel of op(B) = B copies its rows through the table's packRows where it
// has one; fringe panels and op(B) = Bᵀ run the loops here.
func packB[T mat.Float](kt *kernels[T], buf []T, b *mat.Dense[T], transB Transpose, j0, p0, kc, nc int) {
	nr := kt.nr
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		dst := buf[jr*kc:]
		if transB == NoTrans {
			if cols == nr && kt.packRows != nil {
				kt.packRows(dst[:kc*nr], b.Data[p0*b.Stride+j0+jr:], b.Stride, kc)
				continue
			}
			// op(B) row p is contiguous in B; copy nr-wide chunks.
			for p := 0; p < kc; p++ {
				src := b.Data[(p0+p)*b.Stride+j0+jr:][:cols]
				d := dst[p*nr : p*nr+nr : p*nr+nr]
				copy(d, src)
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		} else {
			// op(B)[p, jr+j] = B[j0+jr+j, p0+p]: each B row provides one
			// packed column; scatter with stride nr.
			for j := 0; j < cols; j++ {
				src := b.Data[(j0+jr+j)*b.Stride+p0:][:kc]
				d := dst[j:]
				for p, v := range src {
					d[p*nr] = v
				}
			}
			if cols < nr {
				for p := 0; p < kc; p++ {
					d := dst[p*nr:]
					for j := cols; j < nr; j++ {
						d[j] = 0
					}
				}
			}
		}
	}
}
