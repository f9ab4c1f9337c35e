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
	nb := f.nb
	cols := f.trailingCols(k)

	// Apply: SWPTRSM on every trailing column restricted to the pivot rows.
	for _, j := range cols {
		j := j
		acc := []runtime.Access{runtime.R(st.hStack)}
		acc = append(acc, f.accRows(st.rows, j)...)
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("SWPTRSM(%d,%d)", k, j),
			Kernel:   "SWPTRSM",
			Node:     f.owner(k, j),
			Flops:    flops.Trsm(nb, nb),
			Priority: prioElim(k),
			Accesses: acc,
			RunTraced: func(tr *runtime.TraceTask) {
				m := &tile.Meter{}
				defer func() { tr.ChargeConv(m.NS) }()
				if st.f32 {
					// Resident apply: acquire the column's step stack (one
					// rounding pass per stateF64 tile), swap and solve in
					// place, then commit — the stack views become the tiles'
					// dirty images, with no scatter-back copy and no pooled
					// scratch to leak on panic. The tiles are untouched until
					// commit, so a demotion just abandons the stack and falls
					// through to the float64 apply below.
					s32 := f.res.AcquireRowStack32(st.rows, j, m)
					lapack.Laswp32R(s32, st.piv, false)
					blas.Trsm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, st.l11_32, s32.View(0, 0, nb, nb))
					if !f.excursion32(s32) {
						f.res.CommitRowStack32(s32, st.rows, j)
						return
					}
					f.noteDemotion()
				}
				f.ensure64(m, colRefs(st.rows, j)...)
				// Pooled stacking scratch: StackRowsInto overwrites every
				// element, and the buffer never outlives the task.
				s, sbuf := mat.GetMatrix(len(st.rows)*nb, nb)
				defer mat.PutBuf(sbuf)
				f.A.StackRowsInto(s, st.rows, j)
				lapack.Laswp(s, st.piv, false)
				blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, st.stack.View(0, 0, nb, nb), s.View(0, 0, nb, nb))
				f.A.UnstackRows(s, st.rows, j)
			},
		})
	}
	// Apply to the RHS.
	{
		acc := []runtime.Access{runtime.R(st.hStack)}
		acc = append(acc, f.accRHSRows(st.rows)...)
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("SWPTRSM(%d,rhs)", k),
			Kernel:   "SWPTRSM",
			Node:     f.owner(k, k),
			Flops:    flops.Trsm(nb, f.rhs.W),
			Priority: prioElim(k),
			Accesses: acc,
			RunTraced: func(tr *runtime.TraceTask) {
				m := &tile.Meter{}
				defer func() { tr.ChargeConv(m.NS) }()
				if st.f32 {
					s32 := f.res.AcquireVecStack32(st.rows, m)
					lapack.Laswp32R(s32, st.piv, false)
					blas.Trsm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, st.l11_32, s32.View(0, 0, nb, f.rhs.W))
					if !f.excursion32(s32) {
						f.res.CommitVecStack32(s32, st.rows)
						return
					}
					f.noteDemotion()
				}
				f.ensure64(m, vecRefs(st.rows)...)
				s, sbuf := mat.GetMatrix(len(st.rows)*nb, f.rhs.W)
				defer mat.PutBuf(sbuf)
				f.rhs.StackRowsInto(s, st.rows)
				lapack.Laswp(s, st.piv, false)
				blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, st.stack.View(0, 0, nb, nb), s.View(0, 0, nb, f.rhs.W))
				f.rhs.UnstackRows(s, st.rows)
			},
		})
	}

	// Eliminate: off-pivot panel tiles against U of the diagonal tile.
	for i := k + 1; i < f.nt; i++ {
		if inSet(st.rows, i) {
			continue
		}
		i := i
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("TRSM(%d,%d)", i, k),
			Kernel:   "TRSM",
			Node:     f.owner(i, k),
			Flops:    flops.Trsm(nb, nb),
			Priority: prioElim(k),
			Accesses: []runtime.Access{runtime.R(f.h[k][k]), runtime.W(f.h[i][k])},
			RunTraced: func(tr *runtime.TraceTask) {
				f.runTileTask(tr, st, []tileRef{mref(k, k)}, []tileRef{mref(i, k)},
					func(in, out []*mat.Matrix32) {
						blas.Trsm32R(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, in[0], out[0])
					},
					func() {
						blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, f.A.Tile(k, k), f.A.Tile(i, k))
					})
			},
		})
	}

	// Update: the trailing submatrix and the RHS.
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
				RunTraced: func(tr *runtime.TraceTask) {
					f.runTileTask(tr, st, []tileRef{mref(i, k), mref(k, j)}, []tileRef{mref(i, j)},
						func(in, out []*mat.Matrix32) {
							blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, in[0], in[1], 1, out[0])
						},
						func() {
							blas.Gemm(blas.NoTrans, blas.NoTrans, -1, f.A.Tile(i, k), f.A.Tile(k, j), 1, f.A.Tile(i, j))
						})
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
			RunTraced: func(tr *runtime.TraceTask) {
				f.runTileTask(tr, st, []tileRef{mref(i, k), vref(k)}, []tileRef{vref(i)},
					func(in, out []*mat.Matrix32) {
						blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, in[0], in[1], 1, out[0])
					},
					func() {
						blas.Gemm(blas.NoTrans, blas.NoTrans, -1, f.A.Tile(i, k), f.rhs.Tile(k), 1, f.rhs.Tile(i))
					})
			},
		})
	}
}
