package core

import (
	"fmt"
	"strconv"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// Pairwise LU: LU IncPiv and HLU run one step, which reduces the panel's
// tile rows along a reduction tree (the QR step's tree.Op lists) with LU
// pair kernels:
//
//	GETRF(i)        a head tile row is factored locally (pivoting inside
//	                the tile); its L/P factors are snapshotted and applied
//	                to the row's trailing tiles (a GESSM per column), and
//	                only its U stays in the tile — the analogue of
//	                GEQRT+UNMQR.
//	PAIRLU(i, piv)  row i is killed against row piv: the stacked pair
//	                [A_piv,k; A_ik] is factored with partial pivoting, the
//	                winner's U moves to row piv, the pair's multipliers to
//	                the killed tile, and the pair's L/P factors update both
//	                rows' trailing tiles (an SSSSM per column) — the
//	                analogue of a TS or TT kill. A TS kill stacks a full
//	                tile, a TT kill a head's U; the body is the same.
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

// luFactors is the output of one GETRF: a factored tile or stacked pair
// (L\U) and its pivots, kept for the updates and the RHS replay.
type luFactors struct {
	lu  *mat.Matrix
	piv []int
}

// hluState retains a pairwise LU step's factors. Per-row data lives in
// slices indexed by tile row so concurrent factor tasks never share a map.
type hluState struct {
	ops   []tree.Op
	heads []*luFactors // local GETRF factors (the tile's snapshot), by row
	pairs []*luFactors // 2nb×nb pair factors, by killed row
}

func newHLUState(nt int, ops []tree.Op) *hluState {
	return &hluState{ops: ops, heads: make([]*luFactors, nt), pairs: make([]*luFactors, nt)}
}

// scheduleHLU builds the static task graph of LU IncPiv (the flat TS chain
// down every panel) or HLU (the configured hierarchical trees).
func (f *fact) scheduleHLU() {
	for k := 0; k < f.nt; k++ {
		var ops []tree.Op
		if f.cfg.Alg == LUIncPiv {
			ops = tree.Eliminations(f.panelRows(k), tree.FlatTS)
		} else {
			ops = tree.Hierarchical(f.cfg.Grid.PanelDomains(k, f.nt), f.cfg.IntraTree, f.cfg.InterTree)
		}
		st := &stepState{k: k, hlu: newHLUState(f.nt, ops)}
		f.steps[k] = st
		f.report.Decisions[k] = true
		for _, op := range ops {
			if op.Kind == tree.OpGeqrt {
				f.submitHLUHead(st, op.I)
			} else {
				f.submitHLUPair(st, op.I, op.Piv)
			}
		}
		f.submitGrowthProbe(k)
	}
}

// submitHLUHead factors tile row i in place and applies its L/P to the
// row's trailing tiles and RHS tile.
func (f *fact) submitHLUHead(st *stepState, i int) {
	k, nb, hs := st.k, f.nb, st.hlu
	hH := f.e.NewHandle(fmt.Sprintf("hluHead(%d,%d)", i, k), nb*nb*8, f.owner(i, k))
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("GETRF(%d,%d)", i, k),
		Kernel:   "GETRF",
		Node:     f.owner(i, k),
		Flops:    flops.Getrf(nb, nb),
		Priority: prioElim(k),
		Accesses: []runtime.Access{runtime.W(f.h[i][k]), runtime.W(hH)},
		Run: func() {
			t := f.A.Tile(i, k)
			piv, err := lapack.Getrf(t)
			f.noteBreakdown(err)
			// The GESSMs and the replay read L from the snapshot; the tile
			// keeps only U, which the pair merges read and rewrite.
			hs.heads[i] = &luFactors{lu: t.Clone(), piv: piv}
			copyUpper(t, hs.heads[i].lu)
		},
	})
	f.submitHLUUpdates(k, "GESSM", fmt.Sprintf("%d,%d", i, k), []int{i}, hH,
		func(w int) float64 { return flops.Trsm(nb, w) },
		func(c []*mat.Matrix) { swptrsm(c[0], hs.heads[i].piv, hs.heads[i].lu) })
}

// submitHLUPair kills tile row i against row piv: the stacked pair is
// factored with partial pivoting and both rows' trailing tiles and RHS
// tiles receive the pair transformation.
func (f *fact) submitHLUPair(st *stepState, i, piv int) {
	k, nb, hs := st.k, f.nb, st.hlu
	hP := f.e.NewHandle(fmt.Sprintf("hluPair(%d,%d)", i, k), 2*nb*nb*8, f.owner(i, k))
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("PAIRLU(%d,%d,%d)", i, piv, k),
		Kernel:   "TSTRF",
		Node:     f.owner(i, k),
		Flops:    flops.Trsm(nb, nb), // structure-exploiting pairwise count
		Priority: prioElim(k),
		Accesses: []runtime.Access{runtime.W(f.h[piv][k]), runtime.W(f.h[i][k]), runtime.W(hP)},
		Run: func() {
			top, bot := f.A.Tile(piv, k), f.A.Tile(i, k)
			s := mat.New(2*nb, nb)
			s.View(0, 0, nb, nb).CopyFrom(top)
			s.View(nb, 0, nb, nb).CopyFrom(bot)
			p, err := lapack.Getrf(s)
			f.noteBreakdown(err)
			hs.pairs[i] = &luFactors{lu: s, piv: p}
			copyUpper(top, s.View(0, 0, nb, nb))
			bot.CopyFrom(s.View(nb, 0, nb, nb))
		},
	})
	f.submitHLUUpdates(k, "SSSSM", fmt.Sprintf("%d,%d", i, piv), []int{piv, i}, hP,
		func(w int) float64 { return flops.Trsm(nb, w) + flops.Gemm(nb, w, nb) },
		func(c []*mat.Matrix) { ssssm(hs.pairs[i], c[0], c[1]) })
}

// submitHLUUpdates submits one update task per trailing column of panel k
// and one for the RHS, named kernel(label,column): each reads the factor
// handle h and runs apply on the tiles of rows in its column, on the node
// owning the last row's tile.
func (f *fact) submitHLUUpdates(k int, kernel, label string, rows []int, h *runtime.Handle,
	flop func(w int) float64, apply func(c []*mat.Matrix)) {
	i := rows[len(rows)-1]
	submit := func(col string, node, prio int, refs []tile.Ref) {
		acc := []runtime.Access{runtime.R(h)}
		for _, t := range refs {
			acc = append(acc, runtime.W(f.handle(t)))
		}
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("%s(%s,%s)", kernel, label, col),
			Kernel:   kernel,
			Node:     node,
			Flops:    flop(f.tile64(refs[0]).Cols),
			Priority: prio,
			Accesses: acc,
			Run:      func() { apply(f.tiles64(make([]*mat.Matrix, len(refs)), refs)) },
		})
	}
	for _, j := range f.trailingCols(k) {
		submit(strconv.Itoa(j), f.owner(i, j), prioUpdate(k, j), colRefs(rows, j))
	}
	submit("rhs", f.owner(i, k), prioUpdate(k, k+1), rhsRefs(rows))
}

// ssssm applies a pair's transformation to the stacked tiles [c1; c2]: its
// row swaps and unit-lower solve on the top block, then the Schur update
// of the bottom block.
func ssssm(p *luFactors, c1, c2 *mat.Matrix) {
	nb, w := c1.Rows, c1.Cols
	s := mat.New(2*nb, w)
	s.View(0, 0, nb, w).CopyFrom(c1)
	s.View(nb, 0, nb, w).CopyFrom(c2)
	swptrsm(s, p.piv, p.lu.View(0, 0, nb, nb))
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, p.lu.View(nb, 0, nb, nb), s.View(0, 0, nb, w), 1, s.View(nb, 0, nb, w))
	c1.CopyFrom(s.View(0, 0, nb, w))
	c2.CopyFrom(s.View(nb, 0, nb, w))
}

// copyUpper copies the upper triangle of src into dst, zeroing dst's
// strictly lower triangle.
func copyUpper(dst, src *mat.Matrix) {
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

// replayHLUStep applies a pairwise LU step's transformations to a fresh
// RHS.
func (f *fact) replayHLUStep(st *stepState, rhs *tile.Vector) error {
	hs := st.hlu
	for _, op := range hs.ops {
		if op.Kind == tree.OpGeqrt {
			h := hs.heads[op.I]
			if h == nil {
				return fmt.Errorf("core: step %d missing HLU head factors for row %d", st.k, op.I)
			}
			swptrsm(rhs.Tile(op.I), h.piv, h.lu)
			continue
		}
		p := hs.pairs[op.I]
		if p == nil {
			return fmt.Errorf("core: step %d missing HLU pair factors for row %d", st.k, op.I)
		}
		ssssm(p, rhs.Tile(op.Piv), rhs.Tile(op.I))
	}
	return nil
}
