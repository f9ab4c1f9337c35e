package core

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
)

// scheduleVariantStep builds step k of the hybrid algorithm for the §II-C
// LU-step variants (A2), (B1), (B2). All three factor the *diagonal tile*
// (the variants are defined at tile granularity in the paper):
//
//	(A2)  trial = GEQRT; on LU keep it (Apply = UNMQR, Eliminate = TRSM
//	      with R, Update = GEMM); on QR *reuse* it — no restore needed.
//	(B1)  trial = GETRF with pivoting inside the tile; on LU, Eliminate =
//	      A_ik·A_kk⁻¹ (TRSM·TRSM·column swaps), no Apply, Schur update with
//	      the original row k; on QR, restore from backup. The diagonal
//	      factors are retained for the block back-substitution.
//	(B2)  trial = GEQRT; on LU, Eliminate = (A_ik·R⁻¹)·Qᵀ, no Apply; on QR,
//	      reuse as in (A2).
func (f *fact) scheduleVariantStep(k int) {
	st := &stepState{k: k, rows: []int{k}}
	st.variant = f.cfg.Variant
	f.steps[k] = st
	variant := f.cfg.Variant

	f.submitNormTasks(st)
	if variant == VarB1 {
		f.submitBackup(st)
	}
	f.submitVariantTrial(st, variant)

	acc := []runtime.Access{runtime.R(st.hStack)}
	if st.hBackup != nil {
		acc = append(acc, runtime.R(st.hBackup))
	}
	for _, h := range st.hNorms {
		acc = append(acc, runtime.R(h))
	}
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("Decide(%d)", k),
		Kernel:   "DECIDE",
		Node:     f.owner(k, k),
		Flops:    float64(10 * f.nb * f.nb),
		Priority: prioPanel(k),
		Accesses: acc,
		Run: func() {
			st.decision = f.cfg.Criterion.Decide(f.criterionInput(st))
			f.report.Decisions[k] = st.decision
			if st.decision {
				f.noteBreakdown(st.luErr)
			}
		},
		Then: func(*runtime.Engine) {
			if st.decision {
				st.releaseBackup() // only VarB1 holds one; no-op otherwise
				f.submitVariantLUStep(st, variant)
			} else {
				switch variant {
				case VarB1:
					f.submitRestore(st)
				case VarA2, VarB2:
					// The QR factorization of the diagonal tile is reused:
					// mark the step so submitQRStep skips GEQRT(k).
					st.preFactored = true
				}
				f.submitQRStep(st)
			}
			f.submitGrowthProbe(k)
			if k+1 < f.nt {
				f.scheduleVariantStep(k + 1)
			}
		},
	})
}

// submitVariantTrial factors the diagonal tile in place and collects the
// criterion data. For the QR-based variants the reflector block T is stored
// in st.tGeqrt[k] so both the LU and the QR branch can apply it.
func (f *fact) submitVariantTrial(st *stepState, variant LUVariant) {
	k := st.k
	nb := f.nb
	st.hStack = f.e.NewHandle(fmt.Sprintf("panelTrial(%d)", k), nb*nb*8, f.owner(k, k))
	if st.tGeqrt == nil {
		st.tGeqrt = map[int]*mat.Matrix{}
		st.tKill = map[int]*mat.Matrix{}
		st.hTGeqrt = map[int]*runtime.Handle{}
		st.hTKill = map[int]*runtime.Handle{}
	}

	qrBased := variant == VarA2 || variant == VarB2
	var t *mat.Matrix
	var hT *runtime.Handle
	kernel, flop := "GETRF", flops.Getrf(nb, nb)
	accesses := []runtime.Access{runtime.W(st.hStack), runtime.W(f.h[k][k])}
	if qrBased {
		kernel, flop = "GEQRT", flops.Geqrt(nb, nb)
		t = mat.New(nb, nb)
		st.tGeqrt[k] = t
		hT = f.e.NewHandle(fmt.Sprintf("Tg(%d,%d)", k, k), nb*nb*8, f.owner(k, k))
		st.hTGeqrt[k] = hT
		accesses = append(accesses, runtime.W(hT))
	}

	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("PanelTrial%s(%d)", kernel, k),
		Kernel:   kernel,
		Node:     f.owner(k, k),
		Flops:    flop,
		Priority: prioPanel(k),
		Accesses: accesses,
		Run: func() {
			tile := f.A.Tile(k, k)
			// Pre-factorization column maxima for the MUMPS criterion.
			st.localMax = make([]float64, nb)
			for j := 0; j < nb; j++ {
				st.localMax[j] = tile.ColAbsMax(j)
			}
			if qrBased {
				lapack.GeqrtIB(tile, t, f.ib)
				// |R_jj| plays the pivot role in the MUMPS input; the
				// estimate of ‖A_kk⁻¹‖₁ uses the exact operator
				// R⁻¹·Qᵀ / Q·R⁻ᵀ through the stored reflectors.
				st.pivots = lapack.LUPivotGrowth(tile)
				st.invNorm = lapack.OneNormEst(nb,
					func(x []float64) {
						c := &mat.Matrix{Rows: nb, Cols: 1, Stride: 1, Data: x}
						lapack.Unmqr(blas.Trans, tile, t, c)
						blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tile, c)
					},
					func(x []float64) {
						c := &mat.Matrix{Rows: nb, Cols: 1, Stride: 1, Data: x}
						blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tile, c)
						lapack.Unmqr(blas.NoTrans, tile, t, c)
					},
				)
				return
			}
			piv, err := lapack.Getrf(tile)
			st.piv = piv
			st.luErr = err
			st.pivots = lapack.LUPivotGrowth(tile)
			if err != nil {
				st.invNorm = math.Inf(1)
			} else {
				st.invNorm = lapack.InvNorm1EstLU(tile, piv)
			}
		},
	})
}

// submitVariantLUStep emits the Apply/Eliminate/Update tasks of the chosen
// variant, assuming the trial factorization of the diagonal tile was kept.
func (f *fact) submitVariantLUStep(st *stepState, variant LUVariant) {
	k := st.k
	nb := f.nb
	cols := f.trailingCols(k)

	// Apply (row k and the RHS tile) — (A2) only; the B variants leave row
	// k untouched, which is what makes their result block triangular.
	if variant == VarA2 {
		f.submitGeqrtUpdates(st, k) // UNMQR on A_kj and b_k
	}

	// Eliminate every sub-diagonal panel tile against the diagonal factors.
	for i := k + 1; i < f.nt; i++ {
		i := i
		var elim func()
		var kernel string
		var flop float64
		accesses := []runtime.Access{runtime.R(f.h[k][k]), runtime.W(f.h[i][k])}
		switch variant {
		case VarA2:
			kernel, flop = "TRSM", flops.Trsm(nb, nb)
			elim = func() {
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, f.A.Tile(k, k), f.A.Tile(i, k))
			}
		case VarB1:
			kernel, flop = "TRSM2", 2*flops.Trsm(nb, nb)
			elim = func() {
				akk := f.A.Tile(k, k)
				x := f.A.Tile(i, k)
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, akk, x)
				blas.Trsm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, akk, x)
				lapack.LaswpCols(x, st.piv, true)
			}
		case VarB2:
			kernel, flop = "TRSMQR", flops.Trsm(nb, nb)+flops.Unmqr(nb, nb)
			t := st.tGeqrt[k]
			elim = func() {
				akk := f.A.Tile(k, k)
				x := f.A.Tile(i, k)
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, akk, x)
				lapack.UnmqrRight(blas.Trans, akk, t, x)
			}
			accesses = append(accesses, runtime.R(st.hTGeqrt[k]))
		default:
			panic("core: submitVariantLUStep with variant A1")
		}
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("Elim%s(%d,%d)", variant, i, k),
			Kernel:   kernel,
			Node:     f.owner(i, k),
			Flops:    flop,
			Priority: prioElim(k),
			Accesses: accesses,
			Run:      elim,
		})
	}

	// Update: A_ij −= A_ik·A_kj and b_i −= A_ik·b_k. For (A2) row k has
	// been Qᵀ-applied; for (B1)/(B2) it carries its step-k values, as block
	// LU requires.
	for i := k + 1; i < f.nt; i++ {
		i := i
		for _, j := range cols {
			j := j
			f.e.Submit(runtime.TaskSpec{
				Name:     fmt.Sprintf("GEMM(%d,%d,%d)", k, i, j),
				Kernel:   "GEMM",
				Node:     f.owner(i, j),
				Flops:    flops.Gemm(nb, nb, nb),
				Priority: prioUpdate(k, j),
				Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.R(f.h[k][j]), runtime.W(f.h[i][j])},
				Run: func() {
					blas.Gemm(blas.NoTrans, blas.NoTrans, -1, f.A.Tile(i, k), f.A.Tile(k, j), 1, f.A.Tile(i, j))
				},
			})
		}
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("GEMM(%d,%d,rhs)", k, i),
			Kernel:   "GEMM",
			Node:     f.owner(i, k),
			Flops:    flops.Gemm(nb, f.rhs.W, nb),
			Priority: prioUpdate(k, k+1),
			Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.R(f.hb[k]), runtime.W(f.hb[i])},
			Run: func() {
				blas.Gemm(blas.NoTrans, blas.NoTrans, -1, f.A.Tile(i, k), f.rhs.Tile(k), 1, f.rhs.Tile(i))
			},
		})
	}

	// The B variants leave a block-triangular factor: install the diagonal
	// solver for the back-substitution.
	switch variant {
	case VarB1:
		piv := &st.piv
		f.diagSolvers[k] = func(b *mat.Matrix) {
			lapack.Getrs(blas.NoTrans, f.A.Tile(k, k), *piv, b)
		}
	case VarB2:
		t := st.tGeqrt[k]
		f.diagSolvers[k] = func(b *mat.Matrix) {
			lapack.Unmqr(blas.Trans, f.A.Tile(k, k), t, b)
			blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, f.A.Tile(k, k), b)
		}
	}
}
