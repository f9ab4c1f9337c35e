package core

import (
	"fmt"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tree"
)

// submitQRStep emits the tasks of a QR elimination step at panel k: the
// hierarchical reduction of §II-B (HQR [8]) with the configured intra- and
// inter-domain trees. Every tree.Op maps to a factor kernel on the panel
// plus one update kernel per trailing column and for the RHS.
func (f *fact) submitQRStep(st *stepState) {
	k := st.k
	if st.tGeqrt == nil {
		st.tGeqrt = map[int]*mat.Matrix{}
		st.tKill = map[int]*mat.Matrix{}
		st.tGeqrt32 = map[int]*mat.Matrix32{}
		st.tKill32 = map[int]*mat.Matrix32{}
		st.hTGeqrt = map[int]*runtime.Handle{}
		st.hTKill = map[int]*runtime.Handle{}
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
			f.submitTSKill(st, op.I, op.Piv)
		case tree.OpTT:
			f.submitTTKill(st, op.I, op.Piv)
		}
	}
}

// submitGeqrt triangularizes tile row i of panel k and applies Qᵀ to the
// row's trailing tiles and RHS tile.
func (f *fact) submitGeqrt(st *stepState, i int) {
	k := st.k
	nb := f.nb
	t := mat.New(nb, nb)
	st.tGeqrt[i] = t
	// The float32 T image is allocated at submit time (the map write is
	// single-threaded here) and kept in sync with t by the factor task.
	var t32 *mat.Matrix32
	if st.f32 {
		t32 = mat.NewMatrix32(nb, nb)
		st.tGeqrt32[i] = t32
	}
	hT := f.e.NewHandle(fmt.Sprintf("Tg(%d,%d)", i, k), nb*nb*8, f.owner(i, k))
	st.hTGeqrt[i] = hT

	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("GEQRT(%d,%d)", i, k),
		Kernel:   "GEQRT",
		Node:     f.owner(i, k),
		Flops:    flops.Geqrt(nb, nb),
		Priority: prioElim(k),
		Accesses: []runtime.Access{runtime.W(f.h[i][k]), runtime.W(hT)},
		RunTraced: func(tr *runtime.TraceTask) {
			f.runTileTaskT(tr, st, nil, []tileRef{mref(i, k)}, t, t32,
				func(in, out []*mat.Matrix32) { lapack.Geqrt32RIB(out[0], t32, f.ib) },
				func() { lapack.GeqrtIB(f.A.Tile(i, k), t, f.ib) })
		},
	})
	f.submitGeqrtUpdates(st, i)
}

// submitGeqrtUpdates applies the Qᵀ of a completed GEQRT on row i to the
// row's trailing tiles and RHS tile. The T factor must already be present
// in st.tGeqrt[i] / st.hTGeqrt[i].
func (f *fact) submitGeqrtUpdates(st *stepState, i int) {
	k := st.k
	nb := f.nb
	t := st.tGeqrt[i]
	t32 := st.tGeqrt32[i]
	hT := st.hTGeqrt[i]
	for _, j := range f.trailingCols(k) {
		j := j
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("UNMQR(%d,%d,%d)", i, k, j),
			Kernel:   "UNMQR",
			Node:     f.owner(i, j),
			Flops:    flops.Unmqr(nb, nb),
			Priority: prioUpdate(k, j),
			Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.R(hT), runtime.W(f.h[i][j])},
			RunTraced: func(tr *runtime.TraceTask) {
				f.runTileTask(tr, st, []tileRef{mref(i, k)}, []tileRef{mref(i, j)},
					func(in, out []*mat.Matrix32) { lapack.Unmqr32R(blas.Trans, in[0], t32, out[0]) },
					func() { lapack.Unmqr(blas.Trans, f.A.Tile(i, k), t, f.A.Tile(i, j)) })
			},
		})
	}
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("UNMQR(%d,%d,rhs)", i, k),
		Kernel:   "UNMQR",
		Node:     f.owner(i, k),
		Flops:    flops.Unmqr(nb, f.rhs.W),
		Priority: prioUpdate(k, k+1),
		Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.R(hT), runtime.W(f.hb[i])},
		RunTraced: func(tr *runtime.TraceTask) {
			f.runTileTask(tr, st, []tileRef{mref(i, k)}, []tileRef{vref(i)},
				func(in, out []*mat.Matrix32) { lapack.Unmqr32R(blas.Trans, in[0], t32, out[0]) },
				func() { lapack.Unmqr(blas.Trans, f.A.Tile(i, k), t, f.rhs.Tile(i)) })
		},
	})
}

// submitTSKill zeroes square tile row i against triangular pivot row piv
// with TS kernels and updates both rows' trailing tiles.
func (f *fact) submitTSKill(st *stepState, i, piv int) {
	f.submitKill(st, i, piv, true)
}

// submitTTKill zeroes triangular tile row i against triangular pivot row
// piv with TT kernels.
func (f *fact) submitTTKill(st *stepState, i, piv int) {
	f.submitKill(st, i, piv, false)
}

func (f *fact) submitKill(st *stepState, i, piv int, ts bool) {
	k := st.k
	nb := f.nb
	t := mat.New(nb, nb)
	st.tKill[i] = t
	var t32 *mat.Matrix32
	if st.f32 {
		t32 = mat.NewMatrix32(nb, nb)
		st.tKill32[i] = t32
	}
	hT := f.e.NewHandle(fmt.Sprintf("Tk(%d,%d)", i, k), nb*nb*8, f.owner(i, k))
	st.hTKill[i] = hT

	kernel, factFlops, updFlops := "TSQRT", flops.Tsqrt(nb), flops.Tsmqr(nb, nb)
	updKernel, rhsFlops := "TSMQR", flops.Tsmqr(nb, f.rhs.W)
	if !ts {
		kernel, factFlops, updFlops = "TTQRT", flops.Ttqrt(nb), flops.Ttmqr(nb, nb)
		updKernel, rhsFlops = "TTMQR", flops.Ttmqr(nb, f.rhs.W)
	}

	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("%s(%d,%d,%d)", kernel, i, piv, k),
		Kernel:   kernel,
		Node:     f.owner(i, k),
		Flops:    factFlops,
		Priority: prioElim(k),
		Accesses: []runtime.Access{runtime.W(f.h[piv][k]), runtime.W(f.h[i][k]), runtime.W(hT)},
		RunTraced: func(tr *runtime.TraceTask) {
			f.runTileTaskT(tr, st, nil, []tileRef{mref(piv, k), mref(i, k)}, t, t32,
				func(in, out []*mat.Matrix32) {
					if ts {
						lapack.Tsqrt32RIB(out[0], out[1], t32, f.ib)
					} else {
						lapack.Ttqrt32RIB(out[0], out[1], t32, f.ib)
					}
				},
				func() {
					if ts {
						lapack.TsqrtIB(f.A.Tile(piv, k), f.A.Tile(i, k), t, f.ib)
					} else {
						lapack.TtqrtIB(f.A.Tile(piv, k), f.A.Tile(i, k), t, f.ib)
					}
				})
		},
	})
	for _, j := range f.trailingCols(k) {
		j := j
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("%s(%d,%d,%d)", updKernel, i, piv, j),
			Kernel:   updKernel,
			Node:     f.owner(i, j),
			Flops:    updFlops,
			Priority: prioUpdate(k, j),
			Accesses: []runtime.Access{
				runtime.R(f.h[i][k]), runtime.R(hT),
				runtime.W(f.h[piv][j]), runtime.W(f.h[i][j]),
			},
			RunTraced: func(tr *runtime.TraceTask) {
				f.runTileTask(tr, st, []tileRef{mref(i, k)}, []tileRef{mref(piv, j), mref(i, j)},
					func(in, out []*mat.Matrix32) {
						if ts {
							lapack.Tsmqr32R(blas.Trans, in[0], t32, out[0], out[1])
						} else {
							lapack.Ttmqr32R(blas.Trans, in[0], t32, out[0], out[1])
						}
					},
					func() {
						if ts {
							lapack.Tsmqr(blas.Trans, f.A.Tile(i, k), t, f.A.Tile(piv, j), f.A.Tile(i, j))
						} else {
							lapack.Ttmqr(blas.Trans, f.A.Tile(i, k), t, f.A.Tile(piv, j), f.A.Tile(i, j))
						}
					})
			},
		})
	}
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("%s(%d,%d,rhs)", updKernel, i, piv),
		Kernel:   updKernel,
		Node:     f.owner(i, k),
		Flops:    rhsFlops,
		Priority: prioUpdate(k, k+1),
		Accesses: []runtime.Access{
			runtime.R(f.h[i][k]), runtime.R(hT),
			runtime.W(f.hb[piv]), runtime.W(f.hb[i]),
		},
		RunTraced: func(tr *runtime.TraceTask) {
			f.runTileTask(tr, st, []tileRef{mref(i, k)}, []tileRef{vref(piv), vref(i)},
				func(in, out []*mat.Matrix32) {
					if ts {
						lapack.Tsmqr32R(blas.Trans, in[0], t32, out[0], out[1])
					} else {
						lapack.Ttmqr32R(blas.Trans, in[0], t32, out[0], out[1])
					}
				},
				func() {
					if ts {
						lapack.Tsmqr(blas.Trans, f.A.Tile(i, k), t, f.rhs.Tile(piv), f.rhs.Tile(i))
					} else {
						lapack.Ttmqr(blas.Trans, f.A.Tile(i, k), t, f.rhs.Tile(piv), f.rhs.Tile(i))
					}
				})
		},
	})
}
