package core

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// Solve solves A·x = b2 for a new right-hand side by replaying the stored
// per-step transformations of the factorization on b2 (the "second pass"
// alternative of §II-D.1: "all needed information about the transformations
// is stored in place of A, so one can apply the transformations on b during
// a second pass") and back-substituting. The replay is serial — O(N²) — and
// reproduces the in-flight RHS processing of the original Run bit for bit.
//
// Solve only reads the stored factors, so concurrent calls on the same
// Result are safe.
func (r *Result) Solve(b2 []float64) ([]float64, error) {
	xs, err := r.SolveBatch([][]float64{b2})
	if err != nil {
		return nil, err
	}
	return xs[0], nil
}

// SolveBatch solves A·x_j = b_j for many right-hand sides at once: the
// vectors are packed as the columns of one NB×w tiled RHS, every stored
// per-step transformation is replayed once over the whole block, and a
// single block back-substitution pass produces all solutions. Every replay
// and solve kernel is rank-w BLAS instead of w separate rank-1 passes, so a
// batch of w costs far less than w Solve calls — this is the amortization
// the solver service's RHS batching rides on. Each returned xs[j] equals
// Solve(bs[j]) exactly (column j of the block never mixes with the others).
//
// SolveBatch only reads the stored factors, so concurrent calls on the same
// Result are safe.
func (r *Result) SolveBatch(bs [][]float64) ([][]float64, error) {
	xs, _, err := r.SolveBatchRefined(bs)
	return xs, err
}

// SolveBatchRefined is SolveBatch plus the mixed-precision accuracy
// guarantee: when the factorization accepted float32 steps, every solution
// column is iteratively refined through the stored factors — float64
// residual against the retained original matrix, O(N²) correction solve —
// until its HPL3 backward error reaches float64 territory or stops
// improving. The middle return is the number of refinement rounds (0 for
// pure-f64 factorizations, whose solutions need none).
//
// Like SolveBatch, it only reads the stored factorization state, so
// concurrent calls on the same Result are safe.
func (r *Result) SolveBatchRefined(bs [][]float64) ([][]float64, int, error) {
	f := r.f
	if f == nil {
		return nil, 0, fmt.Errorf("core: Result does not carry factorization state")
	}
	if len(bs) == 0 {
		return nil, 0, nil
	}
	n := r.Report.N
	for j, b := range bs {
		if len(b) != n {
			return nil, 0, fmt.Errorf("core: rhs %d has length %d for N=%d", j, len(b), n)
		}
	}
	// Pad to the tiled order if the original system was padded (§II-D.2):
	// the pad rows stay zero, matching diag(A, I).
	full := make([][]float64, len(bs))
	for j, b := range bs {
		fb := make([]float64, f.nt*f.nb)
		copy(fb, b)
		full[j] = fb
	}
	xs, err := f.solveVecsRaw(full)
	if err != nil {
		return nil, 0, err
	}
	iters := 0
	if r.Report.F32Steps > 0 {
		iters, _ = f.refineVecs(full, xs)
	}
	out := make([][]float64, len(xs))
	for j, x := range xs {
		out[j] = x[:n:n]
	}
	return out, iters, nil
}

// solveVecsRaw replays every stored per-step transformation over the packed
// right-hand-side columns and back-substitutes — the raw second pass, with
// no refinement. Inputs and outputs are full tiled-order (padded) vectors.
func (f *fact) solveVecsRaw(bs [][]float64) ([][]float64, error) {
	w := len(bs)
	nb := f.nb
	rhs := tile.NewVector(f.nt, nb, w)
	for j, b := range bs {
		for i, v := range b {
			rhs.Tiles[i/nb].Set(i%nb, j, v)
		}
	}
	for k := 0; k < f.nt; k++ {
		if err := f.replayStep(f.steps[k], rhs); err != nil {
			return nil, err
		}
	}
	backSubstituteBlock(f.A, rhs, f.diagSolvers)
	xs := make([][]float64, w)
	for j := range xs {
		x := make([]float64, f.nt*nb)
		for i := range x {
			x[i] = rhs.Tiles[i/nb].At(i%nb, j)
		}
		xs[j] = x
	}
	return xs, nil
}

// Refinement bounds: at double precision, each round through sound factors
// multiplies the residual by roughly the f32/f64 epsilon gap, so a handful
// of rounds suffice; refineHPL3Tol is the HPL3 level at which a column is
// declared converged (HPL3 ≲ O(10) is the paper's §V-A acceptance band).
const (
	refineMaxIters = 10
	refineHPL3Tol  = 16.0
)

// refineVecs runs iterative refinement on the solution columns xs of the
// systems a0·x = bs, in place: r = b − A·x at float64 (the retained
// original matrix), dx from a raw replay solve, and the update x += dx is
// accepted per column only when its HPL3 improves — so refinement can stall
// but never degrade a solution. Columns at or below refineHPL3Tol are left
// alone. Each iterate's residual is formed once: it gives the iterate's
// HPL3 and, once accepted, the next correction's right-hand side. Returns
// the number of rounds performed and the final HPL3 of every column.
// Vectors are full tiled-order (padded) length; for a padded system the pad
// rows of b are zero and the identity block keeps their residual exact.
// HPL3 judges the original rows only — the first N entries of the residual
// and of x, against the original ‖A‖∞ and N — which is the quantity Run
// reports: with finite pad entries of x, those residual rows equal the
// unpadded system's bit for bit (the pad columns add only zero products).
func (f *fact) refineVecs(bs, xs [][]float64) (int, []float64) {
	a := f.a0
	if a == nil {
		return 0, nil
	}
	n := f.report.N
	hpl3 := func(r, x []float64) float64 { return mat.HPL3Residual(r[:n], x[:n], f.normA) }
	rs := make([][]float64, len(xs))
	best := make([]float64, len(xs))
	for j := range xs {
		rs[j] = f.residual(a, xs[j], bs[j])
		best[j] = hpl3(rs[j], xs[j])
	}
	iters := 0
	for it := 0; it < refineMaxIters; it++ {
		var idx []int
		for j := range xs {
			if !(best[j] <= refineHPL3Tol) { // NaN counts as unconverged
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			break
		}
		cur := make([][]float64, len(idx))
		for m, j := range idx {
			cur[m] = rs[j]
		}
		dxs, err := f.solveVecsRaw(cur)
		if err != nil {
			break
		}
		iters++
		improved := false
		for m, j := range idx {
			cand := make([]float64, len(xs[j]))
			for i := range cand {
				cand[i] = xs[j][i] + dxs[m][i]
			}
			r := f.residual(a, cand, bs[j])
			if h := hpl3(r, cand); h < best[j] || (math.IsNaN(best[j]) && !math.IsNaN(h)) {
				copy(xs[j], cand)
				rs[j] = r
				best[j] = h
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return iters, best
}

// residual returns b − a·x, split by tile rows across the run's engine
// while it is open and serial after it has closed (a cached or decoded
// factorization). Every row keeps mat.Residual's summation, so the split
// never changes a bit.
func (f *fact) residual(a *mat.Matrix, x, b []float64) []float64 {
	r := make([]float64, a.Rows)
	f.parallel((a.Rows+f.nb-1)/f.nb, func(bi int) {
		mat.ResidualRows(a, x, b, r, bi*f.nb, min((bi+1)*f.nb, a.Rows))
	})
	return r
}

// parallel calls body(0..n−1) on the run's engine while it is open, and in
// order on the caller's goroutine once it has closed.
func (f *fact) parallel(n int, body func(i int)) {
	if f.e == nil {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	f.e.Parallel(n, body)
}

// replayStep applies step k's transformation to a fresh RHS vector.
func (f *fact) replayStep(st *stepState, rhs *tile.Vector) error {
	if st == nil {
		return fmt.Errorf("core: missing step state")
	}
	k := st.k
	if f.report.Decisions[k] {
		return f.replayLUStep(st, rhs)
	}
	return f.replayQRStep(st, rhs)
}

func (f *fact) replayLUStep(st *stepState, rhs *tile.Vector) error {
	k := st.k
	nb := f.nb
	if st.hlu != nil {
		return f.replayHLUStep(st, rhs)
	}
	switch st.variant {
	case VarA1:
		// Apply: swaps + unit-lower solve on the stacked pivot rows.
		s, sbuf := mat.GetMatrix[float64](len(st.rows)*nb, rhs.W)
		defer mat.PutBuf(sbuf)
		rhs.StackRowsInto(s, st.rows)
		swptrsm(s, st.piv, st.stack.View(0, 0, nb, nb))
		rhs.UnstackRows(s, st.rows)
	case VarA2:
		lapack.Unmqr(blas.Trans, f.A.Tile(k, k), st.tGeqrt[k].t, rhs.Tile(k))
	case VarB1, VarB2:
		// Block LU: row k's RHS is untouched at step k.
	}
	// Update: b_i −= A_ik·b_k for every sub-diagonal row.
	for i := k + 1; i < f.nt; i++ {
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, f.A.Tile(i, k), rhs.Tile(k), 1, rhs.Tile(i))
	}
	return nil
}

func (f *fact) replayQRStep(st *stepState, rhs *tile.Vector) error {
	k := st.k
	domains := f.cfg.Grid.PanelDomains(k, f.nt)
	ops := tree.Hierarchical(domains, f.cfg.IntraTree, f.cfg.InterTree)
	for _, op := range ops {
		switch op.Kind {
		case tree.OpGeqrt:
			tf := st.tGeqrt[op.I]
			if tf == nil {
				return fmt.Errorf("core: step %d missing GEQRT factor for row %d", k, op.I)
			}
			lapack.Unmqr(blas.Trans, f.A.Tile(op.I, k), tf.t, rhs.Tile(op.I))
		case tree.OpTS:
			tf := st.tKill[op.I]
			if tf == nil {
				return fmt.Errorf("core: step %d missing TSQRT factor for row %d", k, op.I)
			}
			lapack.Tsmqr(blas.Trans, f.A.Tile(op.I, k), tf.t, rhs.Tile(op.Piv), rhs.Tile(op.I))
		case tree.OpTT:
			tf := st.tKill[op.I]
			if tf == nil {
				return fmt.Errorf("core: step %d missing TTQRT factor for row %d", k, op.I)
			}
			lapack.Ttmqr(blas.Trans, f.A.Tile(op.I, k), tf.t, rhs.Tile(op.Piv), rhs.Tile(op.I))
		}
	}
	return nil
}

// Refine performs iterative refinement on an already computed solution:
// r = b − A·x, dx = Solve(r), x += dx, for iters rounds. It uses the stored
// factorization, so each round costs O(N²). Refinement recovers accuracy
// when the factorization was fast-but-mildly-unstable (e.g. LU NoPiv on a
// matrix with moderate growth), and is an extension beyond the paper.
func (r *Result) Refine(a *mat.Matrix, b, x []float64, iters int) ([]float64, error) {
	out := append([]float64(nil), x...)
	for it := 0; it < iters; it++ {
		res := mat.Residual(a, out, b)
		dx, err := r.Solve(res)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += dx[i]
		}
	}
	return out, nil
}
