package core

import (
	"fmt"

	"luqr/internal/mat"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// A tree step reduces panel k's tile rows along a reduction tree, a list of
// tree.Op: a head op factors a tile row on its own, a kill op eliminates a
// row against a pivot row's triangle, and each factor is applied to the
// trailing tiles and the RHS tiles of the rows it wrote. HQR's steps and
// the hybrid's QR steps run it with the QR kernels; LU IncPiv and HLU run
// it with the pairwise LU kernels (hlu.go). Nothing else tells the two
// apart: the table below gives each op kind's factor and update kernel,
// and the kernels table (kernels.go) whether the update reads the factored
// panel tile besides T.

// opKernels gives, for each tree.Op kind, the kernel that factors the op's
// panel tiles and the kernel that applies the factor to a column.
type opKernels [3]struct{ factor, update kernel }

// qrOps runs the hierarchical QR step of §II-B (HQR [8]): GEQRT heads,
// TS kills of square rows and TT kills of triangular ones.
var qrOps = opKernels{
	tree.OpGeqrt: {kGeqrt, kUnmqr},
	tree.OpTS:    {kTsqrt, kTsmqr},
	tree.OpTT:    {kTtqrt, kTtmqr},
}

// treeOps returns the kernels of alg's tree steps.
func treeOps(alg Algorithm) *opKernels {
	if alg.pairwise() {
		return &luOps
	}
	return &qrOps
}

// stepOps returns panel k's reduction: the flat TS chain down the whole
// panel for LU IncPiv, else the configured intra- and inter-domain trees
// over the panel's domains [8].
func (f *fact) stepOps(k int) []tree.Op {
	if f.cfg.Alg == LUIncPiv {
		return tree.Eliminations(f.panelRows(k), tree.FlatTS)
	}
	return tree.Hierarchical(f.cfg.Grid.PanelDomains(k, f.nt), f.cfg.IntraTree, f.cfg.InterTree)
}

// opRows lists the tile rows op writes: a head's row, or a kill's pivot
// row and killed row.
func opRows(op tree.Op) []int {
	if op.Kind == tree.OpGeqrt {
		return []int{op.I}
	}
	return []int{op.Piv, op.I}
}

// factors returns the step's factors of op kind kind, keyed by tile row:
// the heads' or the kills'.
func (st *stepState) factors(kind tree.Kind) map[int]*tFactor {
	if kind == tree.OpGeqrt {
		return st.tGeqrt
	}
	return st.tKill
}

// submitTreeStep emits the tasks of a tree step at panel k with the kernels
// ks: every op's factor task, then one update task per trailing column and
// one for the RHS.
func (f *fact) submitTreeStep(st *stepState, ks *opKernels) {
	k := st.k
	if st.tGeqrt == nil {
		st.tGeqrt = map[int]*tFactor{}
		st.tKill = map[int]*tFactor{}
	}
	for _, op := range f.stepOps(k) {
		// A trial (A2)/(B2) factorization already triangularized the
		// diagonal tile; reuse it and only submit the updates.
		if !(st.preFactored && op.Kind == tree.OpGeqrt && op.I == k) {
			f.submitFactor(st, op, ks[op.Kind].factor)
		}
		f.submitUpdates(st, op, ks[op.Kind].update)
	}
}

// submitFactor factors op's panel tiles with kernel fk, named fk(i,k) for a
// head and fk(i,piv,k) for a kill.
func (f *fact) submitFactor(st *stepState, op tree.Op, fk kernel) {
	k := st.k
	name := fmt.Sprintf("%s(%d,%d)", kernels[fk].name, op.I, k)
	if op.Kind != tree.OpGeqrt {
		name = fmt.Sprintf("%s(%d,%d,%d)", kernels[fk].name, op.I, op.Piv, k)
	}
	tf := f.newTFactor(st, fk, op.I)
	st.factors(op.Kind)[op.I] = tf
	f.submitTile(st, fk, name, f.owner(op.I, k), prioElim(k), nil, colRefs(opRows(op), k), tf)
}

// submitUpdates applies op's factor with kernel uk to the trailing tiles of
// the rows op wrote, one task per column j named uk(i,k,j) for a head and
// uk(i,piv,j) for a kill, and to their RHS tiles.
func (f *fact) submitUpdates(st *stepState, op tree.Op, uk kernel) {
	k := st.k
	tf := st.factors(op.Kind)[op.I]
	rows := opRows(op)
	var v []tile.Ref
	if kernels[uk].v {
		v = []tile.Ref{tile.At(op.I, k)}
	}
	second := op.Piv
	if op.Kind == tree.OpGeqrt {
		second = k
	}
	name := kernels[uk].name
	for _, j := range f.trailingCols(k) {
		f.submitTile(st, uk, fmt.Sprintf("%s(%d,%d,%d)", name, op.I, second, j), f.owner(op.I, j), prioUpdate(k, j),
			v, colRefs(rows, j), tf)
	}
	f.submitTile(st, uk, fmt.Sprintf("%s(%d,%d,rhs)", name, op.I, second), f.owner(op.I, k), prioUpdate(k, k+1),
		v, rhsRefs(rows), tf)
}

// replayTreeStep applies a tree step's factors to a fresh RHS with the
// update kernels of ks, in the order of the step's ops.
func (f *fact) replayTreeStep(st *stepState, rhs *tile.Vector, ks *opKernels) error {
	k := st.k
	for _, op := range f.stepOps(k) {
		uk := ks[op.Kind].update
		tf := st.factors(op.Kind)[op.I]
		if tf == nil {
			return fmt.Errorf("core: step %d missing %s factor for row %d", k, kernels[ks[op.Kind].factor].name, op.I)
		}
		var inArr, outArr [maxRefs]*mat.Matrix
		in := inArr[:0]
		if kernels[uk].v {
			in = append(in, f.A.Tile(op.I, k))
		}
		out := outArr[:0]
		for _, i := range opRows(op) {
			out = append(out, rhs.Tile(i))
		}
		apply(uk, f.ib, in, out, tf.t, tf.piv)
	}
	return nil
}
