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
	// micro-tile width (4, 8 and 16).
	gemmNC = 512
)

func roundUp(n, q int) int { return (n + q - 1) / q * q }

// packA packs op(A)[i0:i0+mc, p0:p0+kc], scaled by alpha, into MR-tall
// column-major micro-panels: element (ir+i, p) of the block lands at
// buf[ir*kc + p*mr + i]. Rows past mc are zero-filled so every micro-panel
// is a full MR tall.
func packA[T mat.Float](buf []T, a *mat.Dense[T], transA Transpose, alpha T, i0, p0, mc, kc, mr int) {
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		dst := buf[ir*kc:]
		if transA == NoTrans {
			// op(A) row i0+ir+i is a contiguous slice of A; scatter it into
			// the panel with stride mr.
			for i := 0; i < rows; i++ {
				src := a.Data[(i0+ir+i)*a.Stride+p0:][:kc]
				d := dst[i:]
				for p, v := range src {
					d[p*mr] = alpha * v
				}
			}
		} else {
			// op(A)[r, p] = A[p0+p, i0+r]: each A row provides one packed
			// column, contiguous on both sides.
			for p := 0; p < kc; p++ {
				src := a.Data[(p0+p)*a.Stride+i0+ir:][:rows]
				d := dst[p*mr : p*mr+rows : p*mr+rows]
				for i, v := range src {
					d[i] = alpha * v
				}
			}
		}
		if rows < mr {
			for p := 0; p < kc; p++ {
				d := dst[p*mr:]
				for i := rows; i < mr; i++ {
					d[i] = 0
				}
			}
		}
	}
}

// packB packs op(B)[p0:p0+kc, j0:j0+nc] into NR-wide row-major micro-panels:
// element (p, jr+j) of the block lands at buf[jr*kc + p*nr + j]. Columns
// past nc are zero-filled so every micro-panel is a full NR wide.
func packB[T mat.Float](buf []T, b *mat.Dense[T], transB Transpose, j0, p0, kc, nc, nr int) {
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		dst := buf[jr*kc:]
		if transB == NoTrans {
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
