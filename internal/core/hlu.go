package core

import (
	"luqr/internal/blas"
	"luqr/internal/mat"
	"luqr/internal/tree"
)

// Pairwise LU: LU IncPiv and HLU run one step, the QR step's tree step
// (treestep.go) with LU pair kernels in place of the QR ones:
//
//	GETRF(i)        a head tile row is factored locally (pivoting inside
//	                the tile); its L/P factors are kept in the op's factor
//	                and applied to the row's trailing tiles (a GESSM per
//	                column), and only its U stays in the tile — the
//	                analogue of GEQRT+UNMQR.
//	TSTRF(i, piv)   row i is killed against row piv: the stacked pair
//	                [A_piv,k; A_ik] is factored with partial pivoting, the
//	                winner's U moves to row piv, the pair's multipliers to
//	                the killed tile, and the pair's L/P factors update both
//	                rows' trailing tiles (an SSSSM per column) — the
//	                analogue of a TS or TT kill. A TS kill stacks a full
//	                tile, a TT kill a head's U; the kernel is the same.
//
// LU IncPiv, PLASMA's incremental pivoting [2], [3] and the §V-B baseline,
// is the flat TS chain down the whole panel: GETRF on the diagonal tile,
// then every tile below it killed in turn against the running U. Its
// stability degrades as the number of tiles grows, because each pairwise
// elimination compounds its own growth (§VI-C); Figure 2 shows it.
//
// HLU, hierarchical LU, prototypes the final future-work item of §VII:
// "derive LU algorithms with several eliminators per panel (just as for
// HQR) to decrease the critical path". It runs the step on HQR's
// hierarchical trees [8] (Dongarra et al., arXiv 1110.1553), so with
// GREEDY/FIBONACCI trees one panel reduces in ⌈log₂ m⌉ rounds instead of
// m. As with the QR trees of [8], the win materializes on tall panels and
// latency-bound settings: on square matrices the flat chain pipelines
// consecutive panels perfectly (the next diagonal tile is the chain's first
// elimination), so tree choice is a genuine trade-off there too. Stability
// is pairwise-pivoting class (growth compounds along the tree), which is
// exactly why the paper says such an algorithm needs "a reliable robustness
// test" before it can replace the hybrid's LU step; quantifying that gap is
// what this prototype is for.

// luOps runs the pairwise LU step: GETRF heads and TSTRF kills, TS and TT
// alike.
var luOps = opKernels{
	tree.OpGeqrt: {kGetrf, kGessm},
	tree.OpTS:    {kTstrf, kSsssm},
	tree.OpTT:    {kTstrf, kSsssm},
}

// ssssm applies a pair's factors — L\U of the stacked pair and its pivots —
// to the stacked tiles [c1; c2]: its row swaps and unit-lower solve on the
// top block, then the Schur update of the bottom block.
func ssssm[T mat.Float](lu *mat.Dense[T], piv []int, c1, c2 *mat.Dense[T]) {
	nb, w := c1.Rows, c1.Cols
	// Pooled stacking scratch: the copies overwrite every element.
	s, buf := mat.GetMatrix[T](2*nb, w)
	defer mat.PutBuf(buf)
	s.View(0, 0, nb, w).CopyFrom(c1)
	s.View(nb, 0, nb, w).CopyFrom(c2)
	swptrsm(s, piv, lu.View(0, 0, nb, nb))
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, lu.View(nb, 0, nb, nb), s.View(0, 0, nb, w), 1, s.View(nb, 0, nb, w))
	c1.CopyFrom(s.View(0, 0, nb, w))
	c2.CopyFrom(s.View(nb, 0, nb, w))
}

// copyUpper copies the upper triangle of src into dst, zeroing dst's
// strictly lower triangle.
func copyUpper[T mat.Float](dst, src *mat.Dense[T]) {
	n := dst.Rows
	for i := 0; i < n; i++ {
		drow := dst.Row(i)
		srow := src.Row(i)
		for j := 0; j < i; j++ {
			drow[j] = 0
		}
		for j := i; j < n; j++ {
			drow[j] = srow[j]
		}
	}
}
