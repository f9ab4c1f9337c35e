package core

import (
	"fmt"

	"luqr/internal/tile"
	"luqr/internal/tree"
)

// submitQRStep emits the tasks of a QR elimination step at panel k: the
// hierarchical reduction of §II-B (HQR [8]) with the configured intra- and
// inter-domain trees. Every tree.Op maps to a factor kernel on the panel
// plus one update kernel per trailing column and for the RHS.
func (f *fact) submitQRStep(st *stepState) {
	k := st.k
	if st.tGeqrt == nil {
		st.tGeqrt = map[int]*tFactor{}
		st.tKill = map[int]*tFactor{}
	}
	domains := f.cfg.Grid.PanelDomains(k, f.nt)
	ops := tree.Hierarchical(domains, f.cfg.IntraTree, f.cfg.InterTree)
	for _, op := range ops {
		switch op.Kind {
		case tree.OpGeqrt:
			// A trial (A2)/(B2) factorization already triangularized the
			// diagonal tile; reuse it and only submit the updates.
			if op.I == k && st.preFactored {
				f.submitGeqrtUpdates(st, op.I)
				continue
			}
			f.submitGeqrt(st, op.I)
		case tree.OpTS:
			// A square tile row killed against a triangular pivot row.
			f.submitKill(st, op.I, op.Piv, kTsqrt, kTsmqr)
		case tree.OpTT:
			// A triangular tile row killed against a triangular pivot row.
			f.submitKill(st, op.I, op.Piv, kTtqrt, kTtmqr)
		}
	}
}

// submitGeqrt triangularizes tile row i of panel k and applies Qᵀ to the
// row's trailing tiles and RHS tile.
func (f *fact) submitGeqrt(st *stepState, i int) {
	k := st.k
	tf := f.newTFactor(st, "Tg", i)
	st.tGeqrt[i] = tf
	f.submitTile(st, kGeqrt, fmt.Sprintf("GEQRT(%d,%d)", i, k), f.owner(i, k), prioElim(k),
		nil, []tile.Ref{tile.At(i, k)}, tf)
	f.submitGeqrtUpdates(st, i)
}

// submitGeqrtUpdates applies the Qᵀ of a completed GEQRT on row i to the
// row's trailing tiles and RHS tile. The T factor must already be present
// in st.tGeqrt[i].
func (f *fact) submitGeqrtUpdates(st *stepState, i int) {
	k := st.k
	tf := st.tGeqrt[i]
	v := []tile.Ref{tile.At(i, k)}
	for _, j := range f.trailingCols(k) {
		f.submitTile(st, kUnmqr, fmt.Sprintf("UNMQR(%d,%d,%d)", i, k, j), f.owner(i, j), prioUpdate(k, j),
			v, []tile.Ref{tile.At(i, j)}, tf)
	}
	f.submitTile(st, kUnmqr, fmt.Sprintf("UNMQR(%d,%d,rhs)", i, k), f.owner(i, k), prioUpdate(k, k+1),
		v, []tile.Ref{tile.RHS(i)}, tf)
}

// submitKill zeroes tile row i against triangular pivot row piv with the
// factor kernel fk (TSQRT or TTQRT) and updates both rows' trailing tiles
// and RHS tiles with the matching update kernel uk (TSMQR or TTMQR).
func (f *fact) submitKill(st *stepState, i, piv int, fk, uk kernel) {
	k := st.k
	tf := f.newTFactor(st, "Tk", i)
	st.tKill[i] = tf
	f.submitTile(st, fk, fmt.Sprintf("%s(%d,%d,%d)", kernels[fk].name, i, piv, k), f.owner(i, k), prioElim(k),
		nil, []tile.Ref{tile.At(piv, k), tile.At(i, k)}, tf)
	v := []tile.Ref{tile.At(i, k)}
	for _, j := range f.trailingCols(k) {
		f.submitTile(st, uk, fmt.Sprintf("%s(%d,%d,%d)", kernels[uk].name, i, piv, j), f.owner(i, j), prioUpdate(k, j),
			v, []tile.Ref{tile.At(piv, j), tile.At(i, j)}, tf)
	}
	f.submitTile(st, uk, fmt.Sprintf("%s(%d,%d,rhs)", kernels[uk].name, i, piv), f.owner(i, k), prioUpdate(k, k+1),
		v, []tile.Ref{tile.RHS(piv), tile.RHS(i)}, tf)
}
