package core

import (
	"fmt"

	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
)

// CALU (§VI-D) is communication-avoiding LU with tournament pivoting
// (Grigori, Demmel, Xiang 2011). The paper could not compare against it —
// "there is no publicly available implementation of parallel distributed
// CALU" — so this implementation closes that gap as an extension.
//
// Panel k proceeds in three phases:
//
//  1. Tournament: each panel tile enters a binary reduction; every match
//     stacks the two candidate blocks, runs LU with partial pivoting, and
//     promotes the nb rows chosen as pivots (their original values). The
//     final winners are nb "good pivot rows" found with O(log #tiles)
//     messages — the communication-avoiding property.
//  2. Pivoting: one block of row interchanges brings the winners to the top
//     of the panel, applied across the trailing columns and the RHS.
//  3. Elimination: the panel is factored without further pivoting and the
//     trailing matrix updated with the same TRSM/GEMM tasks as an LU step.
//
// Like the hybrid's LU steps, the update is embarrassingly parallel; unlike
// them, every step is an LU step and stability rests on tournament pivoting
// being "stable in practice" [14].

// caluCandidate is a tournament entrant: an nb×nb block of candidate pivot
// rows with, for each, its stacked index within the panel (tile order × nb
// + local row).
type caluCandidate struct {
	vals *mat.Matrix // candidate block, nb×nb (original row values)
	refs []int       // stacked panel row index of each candidate row
}

// scheduleCALU builds the CALU task graph. Steps unfold dynamically, like
// the hybrid's: the tournament of step k+1 must be submitted after step k's
// update tasks exist, because its leaves read the updated panel tiles.
func (f *fact) scheduleCALU() {
	f.scheduleCALUStep(0)
}

func (f *fact) scheduleCALUStep(k int) {
	st := &stepState{k: k, rows: f.panelRows(k)}
	f.steps[k] = st
	f.report.Decisions[k] = true
	nb := f.nb

	// Phase 1: tournament. Leaves are the panel tiles; the bracket is a
	// binary tree over tile order (adjacent pairing), matching the binary
	// TSLU reduction of [14].
	type entrant struct {
		cand *caluCandidate
		h    *runtime.Handle
		node int
	}
	var round []entrant
	for idx, i := range st.rows {
		i, idx := i, idx
		c := &caluCandidate{}
		h := f.e.NewHandle(fmt.Sprintf("cand(%d,%d)", i, k), nb*nb*8, f.owner(i, k))
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("TournLeaf(%d,%d)", i, k),
			Kernel:   "TOURN",
			Node:     f.owner(i, k),
			Flops:    flops.Getrf(nb, nb),
			Priority: prioPanel(k),
			Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.W(h)},
			Run: func() {
				// The leaf's candidates are its rows in the pivot order of a
				// local GEPP — a leaf that wins unopposed (single-tile
				// panels, odd brackets) must already provide good pivots.
				tile := f.A.Tile(i, k)
				s := tile.Clone()
				piv, _ := lapack.Getrf(s)
				pos := make([]int, nb)
				for r := range pos {
					pos[r] = r
				}
				for r, p := range piv {
					pos[r], pos[p] = pos[p], pos[r]
				}
				c.vals = mat.New(nb, nb)
				c.refs = make([]int, nb)
				for r := 0; r < nb; r++ {
					copy(c.vals.Row(r), tile.Row(pos[r]))
					c.refs[r] = idx*nb + pos[r]
				}
			},
		})
		round = append(round, entrant{cand: c, h: h, node: f.owner(i, k)})
	}
	for len(round) > 1 {
		var next []entrant
		for p := 0; p < len(round); p += 2 {
			if p+1 == len(round) {
				next = append(next, round[p])
				continue
			}
			a, b := round[p], round[p+1]
			winner := &caluCandidate{}
			h := f.e.NewHandle(fmt.Sprintf("cand-merge(%d)", k), nb*nb*8, a.node)
			f.e.Submit(runtime.TaskSpec{
				Name:     fmt.Sprintf("TournMatch(%d)", k),
				Kernel:   "TOURN",
				Node:     a.node,
				Flops:    flops.Getrf(2*nb, nb),
				Priority: prioPanel(k),
				Accesses: []runtime.Access{runtime.R(a.h), runtime.R(b.h), runtime.W(h)},
				Run:      func() { *winner = caluMatch(a.cand, b.cand) },
			})
			next = append(next, entrant{cand: winner, h: h, node: a.node})
		}
		round = next
	}
	final := round[0]

	// Phase 2+3 are scheduled once the tournament result is known: the
	// swap list depends on the winners, so the step unfolds dynamically
	// (the same mechanism as the hybrid's decision task).
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("TournFinal(%d)", k),
		Kernel:   "TOURN",
		Node:     f.owner(k, k),
		Priority: prioPanel(k),
		Accesses: []runtime.Access{runtime.R(final.h), runtime.W(st.hNorms0(f))},
		Run: func() {
			st.piv = caluSwapList(final.cand.refs, len(st.rows)*nb)
		},
		Then: func(*runtime.Engine) {
			f.submitCALUSwapsAndFactor(st)
			f.submitLUStep(st)
			f.probeGrowth(k)
			if k+1 < f.nt {
				f.scheduleCALUStep(k + 1)
			}
		},
	})
}

// hNorms0 lazily allocates a control handle that orders the tournament
// final before the swap/factor tasks of the step.
func (st *stepState) hNorms0(f *fact) *runtime.Handle {
	if st.hStack == nil {
		st.hStack = f.e.NewHandle(fmt.Sprintf("panelLU(%d)", st.k), len(st.rows)*f.nb*f.nb*8, f.owner(st.k, st.k))
	}
	return st.hStack
}

// caluMatch plays one tournament match: stack the two candidate blocks,
// factor with partial pivoting, and return the nb winning rows with their
// original values and references.
func caluMatch(a, b *caluCandidate) caluCandidate {
	nb := a.vals.Cols
	s := mat.New(2*nb, nb)
	s.View(0, 0, nb, nb).CopyFrom(a.vals)
	s.View(nb, 0, nb, nb).CopyFrom(b.vals)
	piv, _ := lapack.Getrf(s) // a singular stack still yields an ordering
	// Track which original stacked positions the pivoting moved on top.
	pos := make([]int, 2*nb)
	for i := range pos {
		pos[i] = i
	}
	for r, p := range piv {
		pos[r], pos[p] = pos[p], pos[r]
	}
	w := caluCandidate{vals: mat.New(nb, nb), refs: make([]int, nb)}
	for r := 0; r < nb; r++ {
		src := pos[r]
		if src < nb {
			copy(w.vals.Row(r), a.vals.Row(src))
			w.refs[r] = a.refs[src]
		} else {
			copy(w.vals.Row(r), b.vals.Row(src-nb))
			w.refs[r] = b.refs[src-nb]
		}
	}
	return w
}

// caluSwapList converts the winners' stacked row indices into a LASWP-style
// transposition list that brings them to positions 0..nb−1 of the stacked
// panel.
func caluSwapList(winners []int, stackedRows int) []int {
	pos := make([]int, stackedRows) // current position of each original row
	at := make([]int, stackedRows)  // original row at each position
	for i := range pos {
		pos[i] = i
		at[i] = i
	}
	swaps := make([]int, len(winners))
	for r, w := range winners {
		p := pos[w]
		swaps[r] = p
		if p != r {
			or := at[r]
			pos[or], pos[w] = p, r
			at[r], at[p] = w, or
		}
	}
	return swaps
}

// submitCALUSwapsAndFactor applies the tournament's row interchanges to the
// panel and RHS and factors the pivoted panel without further pivoting.
// After this, submitLUStep's SWPTRSM tasks apply the same swaps to each
// trailing column before the triangular solve.
func (f *fact) submitCALUSwapsAndFactor(st *stepState) {
	k := st.k
	nb := f.nb
	acc := []runtime.Access{runtime.W(st.hNorms0(f))}
	acc = append(acc, f.accRows(st.rows, k)...)
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("CALUPanel(%d)", k),
		Kernel:   "GETRF",
		Node:     f.owner(k, k),
		Flops:    flops.Getrf(len(st.rows)*nb, nb),
		Priority: prioPanel(k),
		Accesses: acc,
		Run: func() {
			st.stack = f.A.StackRows(st.rows, k)
			lapack.Laswp(st.stack, st.piv, false)
			st.luErr = lapack.GetrfNoPiv(st.stack)
			f.noteBreakdown(st.luErr)
			// The panel tiles now hold the factored, pivoted panel; the
			// trailing columns receive the same swaps in their SWPTRSM
			// tasks, so the whole factorization is consistently
			// row-permuted, exactly as in LUPP.
			f.A.UnstackRows(st.stack, st.rows, k)
		},
	})
}
