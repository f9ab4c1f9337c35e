package core

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// The §II-C LU-step variants (A2), (B1), (B2) run the hybrid step of
// scheduleHybridStep with their own trial and LU-step bodies. All three
// factor the *diagonal tile* (the variants are defined at tile granularity
// in the paper):
//
//	(A2)  trial = GEQRT; on LU keep it (Apply = UNMQR, Eliminate = TRSM
//	      with R, Update = GEMM); on QR *reuse* it — no restore needed.
//	(B1)  trial = GETRF with pivoting inside the tile; on LU, Eliminate =
//	      A_ik·A_kk⁻¹ (TRSM·TRSM·column swaps), no Apply, Schur update with
//	      the original row k; on QR, restore from backup. The diagonal
//	      factors are retained for the block back-substitution.
//	(B2)  trial = GEQRT; on LU, Eliminate = (A_ik·R⁻¹)·Qᵀ, no Apply; on QR,
//	      reuse as in (A2).

// submitVariantTrial factors the diagonal tile in place and collects the
// criterion data. For the QR-based variants the reflector block T is stored
// in st.tGeqrt[k] so both the LU and the QR branch can apply it.
func (f *fact) submitVariantTrial(st *stepState) {
	k := st.k
	nb := f.nb
	st.hStack = f.e.NewHandle(fmt.Sprintf("panelTrial(%d)", k), nb*nb*8, f.owner(k, k))
	if st.tGeqrt == nil {
		st.tGeqrt = map[int]*tFactor{}
		st.tKill = map[int]*tFactor{}
	}

	qrBased := st.variant == VarA2 || st.variant == VarB2
	var t *mat.Matrix
	kernel, flop := "GETRF", flops.Getrf(nb, nb)
	accesses := []runtime.Access{runtime.W(st.hStack), runtime.W(f.h[k][k])}
	if qrBased {
		kernel, flop = "GEQRT", flops.Geqrt(nb, nb)
		tf := f.newTFactor(st, kGeqrt, k)
		st.tGeqrt[k] = tf
		t = tf.t
		accesses = append(accesses, runtime.W(tf.h))
	}

	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("PanelTrial%s(%d)", kernel, k),
		Kernel:   kernel,
		Node:     f.owner(k, k),
		Flops:    flop,
		Priority: prioPanel(k),
		Accesses: accesses,
		Run: func() {
			akk := f.A.Tile(k, k)
			// Pre-factorization column maxima for the MUMPS criterion.
			st.localMax = make([]float64, nb)
			for j := 0; j < nb; j++ {
				st.localMax[j] = akk.ColAbsMax(j)
			}
			if qrBased {
				lapack.GeqrtIB(akk, t, f.ib)
				// |R_jj| plays the pivot role in the MUMPS input; the
				// estimate of ‖A_kk⁻¹‖₁ uses the exact operator
				// R⁻¹·Qᵀ / Q·R⁻ᵀ through the stored reflectors.
				st.pivots = lapack.LUPivotGrowth(akk)
				st.invNorm = lapack.OneNormEst(nb,
					func(x []float64) {
						c := &mat.Matrix{Rows: nb, Cols: 1, Stride: 1, Data: x}
						lapack.Unmqr(blas.Trans, akk, t, c)
						blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, akk, c)
					},
					func(x []float64) {
						c := &mat.Matrix{Rows: nb, Cols: 1, Stride: 1, Data: x}
						blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, akk, c)
						lapack.Unmqr(blas.NoTrans, akk, t, c)
					},
				)
				return
			}
			piv, err := lapack.Getrf(akk)
			st.piv = piv
			st.luErr = err
			st.pivots = lapack.LUPivotGrowth(akk)
			if err != nil {
				st.invNorm = math.Inf(1)
			} else {
				st.invNorm = lapack.InvNorm1EstLU(akk, piv)
			}
		},
	})
}

// submitVariantLUStep emits the Apply/Eliminate/Update tasks of the step's
// variant, assuming the trial factorization of the diagonal tile was kept.
func (f *fact) submitVariantLUStep(st *stepState) {
	k := st.k
	variant := st.variant

	// Eliminate every sub-diagonal panel tile against the diagonal factors:
	// (A2) with R, (B1) with the LU, whose pivots its kernel reads (it has
	// no T to wait on: the diagonal tile orders it), (B2) with R and Q.
	var kn kernel
	var tf *tFactor
	switch variant {
	case VarA2:
		// Apply (row k and the RHS tile) — (A2) only; the B variants leave
		// row k untouched, which is what makes their result block
		// triangular.
		f.submitUpdates(st, tree.Op{Kind: tree.OpGeqrt, I: k}, kUnmqr)
		kn = kTrsm
	case VarB1:
		kn, tf = kTrsm2, &tFactor{piv: st.piv}
	case VarB2:
		kn, tf = kTrsmqr, st.tGeqrt[k]
	default:
		panic(fmt.Sprintf("core: submitVariantLUStep with variant %v", variant))
	}
	for i := k + 1; i < f.nt; i++ {
		f.submitTile(st, kn, fmt.Sprintf("Elim%s(%d,%d)", variant, i, k), f.owner(i, k), prioElim(k),
			[]tile.Ref{tile.At(k, k)}, []tile.Ref{tile.At(i, k)}, tf)
	}

	// Update: for (A2) row k has been Qᵀ-applied; for (B1)/(B2) it carries
	// its step-k values, as block LU requires.
	f.submitGemmUpdates(st)

	f.installDiagSolver(st)
}

// installDiagSolver installs the diagonal solver of a (B1)/(B2) LU step for
// the block back-substitution: the B variants leave a block-triangular
// factor. A live factorization and a decoded one install the same solver.
func (f *fact) installDiagSolver(st *stepState) {
	k := st.k
	switch st.variant {
	case VarB1:
		f.diagSolvers[k] = func(b *mat.Matrix) {
			lapack.Getrs(blas.NoTrans, f.A.Tile(k, k), st.piv, b)
		}
	case VarB2:
		t := st.tGeqrt[k].t
		f.diagSolvers[k] = func(b *mat.Matrix) {
			lapack.Unmqr(blas.Trans, f.A.Tile(k, k), t, b)
			blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, f.A.Tile(k, k), b)
		}
	}
}
