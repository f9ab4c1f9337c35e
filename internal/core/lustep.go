package core

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tile"
)

// submitLUStep emits the elimination and update tasks of an LU step at
// panel k (Algorithm 2, variant (A1)), assuming the panel factorization of
// the pivot rows (st.stack, st.piv) has been kept:
//
//   - SWPTRSM per trailing column (and RHS): apply the recorded row swaps to
//     the stacked pivot-row column, then the unit-lower solve to its top
//     tile — the "Apply" of Algorithm 2.
//   - TRSM per off-pivot panel tile: A_ik ← A_ik·U⁻¹ — the "Eliminate".
//   - GEMM per trailing tile: A_ij ← A_ij − A_ik·A_kj — the "Update". For
//     rows inside the pivot set, A_ik holds the panel's L block, making the
//     GEMM the in-domain Schur update; for rows outside, A_ik is the TRSM
//     result. Either way the update is embarrassingly parallel.
func (f *fact) submitLUStep(st *stepState) {
	k := st.k

	// Apply: SWPTRSM on every trailing column restricted to the pivot rows.
	for _, j := range f.trailingCols(k) {
		f.submitSwptrsm(st, fmt.Sprintf("SWPTRSM(%d,%d)", k, j), f.owner(k, j), colRefs(st.rows, j))
	}
	f.submitSwptrsm(st, fmt.Sprintf("SWPTRSM(%d,rhs)", k), f.owner(k, k), rhsRefs(st.rows))

	// Eliminate: off-pivot panel tiles against U of the diagonal tile.
	for i := k + 1; i < f.nt; i++ {
		if inSet(st.rows, i) {
			continue
		}
		f.submitTile(st, kTrsm, fmt.Sprintf("TRSM(%d,%d)", i, k), f.owner(i, k), prioElim(k),
			[]tile.Ref{tile.At(k, k)}, []tile.Ref{tile.At(i, k)}, nil)
	}

	f.submitGemmUpdates(st)
}

// submitSwptrsm applies the step's recorded row swaps and the unit-lower
// solve against the panel's top block to the stacked pivot-row tiles refs:
// one trailing column, or the right-hand side.
func (f *fact) submitSwptrsm(st *stepState, name string, node int, refs []tile.Ref) {
	nb := f.nb
	w := f.tile64(refs[0]).Cols
	acc := []runtime.Access{runtime.R(st.hStack)}
	for _, t := range refs {
		acc = append(acc, runtime.W(f.handle(t)))
	}
	f.e.Submit(runtime.TaskSpec{
		Name:     name,
		Kernel:   "SWPTRSM",
		Node:     node,
		Flops:    flops.Trsm(nb, w),
		Priority: prioElim(st.k),
		Accesses: acc,
		RunTraced: func(tr *runtime.TraceTask) {
			m := &tile.Meter{}
			defer func() { tr.ChargeConv(m.NS) }()
			if st.f32 {
				// Resident apply: acquire the step stack (one rounding pass
				// per stateF64 tile), swap and solve in place, then commit —
				// the stack views become the tiles' dirty images, with no
				// scatter-back copy and no pooled scratch to leak on panic.
				// The tiles are untouched until commit, so a demotion just
				// abandons the stack and falls through to the float64 apply.
				s32 := f.res.AcquireStack32(refs, m)
				swptrsm(s32, st.piv, st.l11_32)
				if !f.excursion32(s32) {
					f.res.CommitStack32(s32, refs)
					return
				}
				f.noteDemotion()
			}
			f.ensure64(m, refs...)
			// Pooled stacking scratch: the copy overwrites every element,
			// and the buffer never outlives the task.
			s, sbuf := mat.GetMatrix[float64](len(refs)*nb, w)
			defer mat.PutBuf(sbuf)
			for r, t := range refs {
				s.View(r*nb, 0, nb, w).CopyFrom(f.tile64(t))
			}
			swptrsm(s, st.piv, st.stack.View(0, 0, nb, nb))
			for r, t := range refs {
				f.tile64(t).CopyFrom(s.View(r*nb, 0, nb, w))
			}
		},
	})
}

// swptrsm applies the row swaps piv to the stacked tiles s, then solves the
// unit-lower l11 against s's top block.
func swptrsm[T mat.Float](s *mat.Dense[T], piv []int, l11 *mat.Dense[T]) {
	lapack.Laswp(s, piv, false)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, s.View(0, 0, l11.Rows, s.Cols))
}

// submitGemmUpdates emits the Schur update of an LU step: A_ij −= A_ik·A_kj
// on every trailing tile and b_i −= A_ik·b_k on the RHS, for every row
// below k. The (A1) step and the §II-C variants share it.
func (f *fact) submitGemmUpdates(st *stepState) {
	k := st.k
	cols := f.trailingCols(k)
	for i := k + 1; i < f.nt; i++ {
		for _, j := range cols {
			f.submitTile(st, kGemm, fmt.Sprintf("GEMM(%d,%d,%d)", k, i, j), f.owner(i, j), prioUpdate(k, j),
				[]tile.Ref{tile.At(i, k), tile.At(k, j)}, []tile.Ref{tile.At(i, j)}, nil)
		}
		f.submitTile(st, kGemm, fmt.Sprintf("GEMM(%d,%d,rhs)", k, i), f.owner(i, k), prioUpdate(k, k+1),
			[]tile.Ref{tile.At(i, k), tile.RHS(k)}, []tile.Ref{tile.RHS(i)}, nil)
	}
}
