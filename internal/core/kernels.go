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

// kernel is one of the tile kernels of the LU, QR and pairwise LU steps,
// run at either precision. A tile task is declared once, as a kernel plus
// the tiles it reads (in), the tiles it writes (out) and, for the kernels
// that factor or apply a panel tile's factor, that factor (tFactor);
// submitTile derives the task's accesses, trace label and flops from that,
// and runTile runs apply at the step's precision.
type kernel int

const (
	kTrsm   kernel = iota // A_ik ← A_ik·U_kk⁻¹
	kGemm                 // C ← C − A·B
	kGeqrt                // QR of a tile, T written
	kUnmqr                // C ← Qᵀ·C by GEQRT's reflectors
	kTsqrt                // QR of a triangle on a square tile, T written
	kTtqrt                // QR of a triangle on a triangle, T written
	kTsmqr                // [C1; C2] ← Qᵀ·[C1; C2] by TSQRT's reflectors
	kTtmqr                // [C1; C2] ← Qᵀ·[C1; C2] by TTQRT's reflectors
	kGetrf                // LU of a tile, pivoting inside it: L\U and pivots to T, U stays
	kGessm                // C ← L⁻¹·P·C by GETRF's factors
	kTstrf                // LU of a pair [U; A]: L\U and pivots to T (2nb×nb)
	kSsssm                // [C1; C2] ← L⁻¹·P·[C1; C2] by TSTRF's factors
	kTrsm2                // A_ik ← A_ik·A_kk⁻¹ by the diagonal tile's LU, (B1)
	kTrsmqr               // A_ik ← A_ik·R_kk⁻¹·Qᵀ by the diagonal tile's QR, (B2)
)

// tUse says how a kernel touches the T factor of its step.
type tUse int8

const (
	noT tUse = iota
	readsT
	writesT
)

// kernels gives each kernel's trace name, its flops on nb×nb tiles when its
// output tiles are w columns wide (nb, or the right-hand side's width), its
// use of T, the height in tiles of the T it writes, and whether it reads
// its factor's panel tile (the reflectors V of the QR updates; an LU
// update's factor lies in T alone).
var kernels = [...]struct {
	name  string
	flops func(nb, w int) float64
	t     tUse
	tRows int
	v     bool
}{
	kTrsm:   {"TRSM", func(nb, _ int) float64 { return flops.Trsm(nb, nb) }, noT, 0, false},
	kGemm:   {"GEMM", func(nb, w int) float64 { return flops.Gemm(nb, w, nb) }, noT, 0, false},
	kGeqrt:  {"GEQRT", func(nb, _ int) float64 { return flops.Geqrt(nb, nb) }, writesT, 1, false},
	kUnmqr:  {"UNMQR", flops.Unmqr, readsT, 0, true},
	kTsqrt:  {"TSQRT", func(nb, _ int) float64 { return flops.Tsqrt(nb) }, writesT, 1, false},
	kTtqrt:  {"TTQRT", func(nb, _ int) float64 { return flops.Ttqrt(nb) }, writesT, 1, false},
	kTsmqr:  {"TSMQR", flops.Tsmqr, readsT, 0, true},
	kTtmqr:  {"TTMQR", flops.Ttmqr, readsT, 0, true},
	kGetrf:  {"GETRF", func(nb, _ int) float64 { return flops.Getrf(nb, nb) }, writesT, 1, false},
	kGessm:  {"GESSM", func(nb, w int) float64 { return flops.Trsm(nb, w) }, readsT, 0, false},
	kTstrf:  {"TSTRF", func(nb, _ int) float64 { return flops.Trsm(nb, nb) }, writesT, 2, false}, // structure-exploiting pairwise count
	kSsssm:  {"SSSSM", func(nb, w int) float64 { return flops.Trsm(nb, w) + flops.Gemm(nb, w, nb) }, readsT, 0, false},
	kTrsm2:  {"TRSM2", func(nb, _ int) float64 { return 2 * flops.Trsm(nb, nb) }, noT, 0, false},
	kTrsmqr: {"TRSMQR", func(nb, _ int) float64 { return flops.Trsm(nb, nb) + flops.Unmqr(nb, nb) }, readsT, 0, false},
}

// apply runs kernel kn on in and out (in the order the task declared them)
// with factor t and pivots piv and inner block size ib, at either
// precision. GETRF and TSTRF return their pivots and a zero pivot's error.
func apply[T mat.Float](kn kernel, ib int, in, out []*mat.Dense[T], t *mat.Dense[T], piv []int) ([]int, error) {
	switch kn {
	case kTrsm:
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, in[0], out[0])
	case kGemm:
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, in[0], in[1], 1, out[0])
	case kGeqrt:
		lapack.GeqrtIB(out[0], t, ib)
	case kUnmqr:
		lapack.Unmqr(blas.Trans, in[0], t, out[0])
	case kTsqrt:
		lapack.TsqrtIB(out[0], out[1], t, ib)
	case kTtqrt:
		lapack.TtqrtIB(out[0], out[1], t, ib)
	case kTsmqr:
		lapack.Tsmqr(blas.Trans, in[0], t, out[0], out[1])
	case kTtmqr:
		lapack.Ttmqr(blas.Trans, in[0], t, out[0], out[1])
	case kGetrf:
		// The GESSMs and the replay read L from T; the tile keeps only U,
		// which the pair kills read and rewrite.
		p, err := lapack.Getrf(out[0])
		t.CopyFrom(out[0])
		copyUpper(out[0], t)
		return p, err
	case kTstrf:
		// The stacked pair is factored in T: the winner's U moves to the
		// pivot row's tile, the multipliers to the killed tile.
		nb := out[0].Rows
		top, bot := t.View(0, 0, nb, nb), t.View(nb, 0, nb, nb)
		top.CopyFrom(out[0])
		bot.CopyFrom(out[1])
		p, err := lapack.Getrf(t)
		copyUpper(out[0], top)
		out[1].CopyFrom(bot)
		return p, err
	case kGessm:
		swptrsm(out[0], piv, t)
	case kSsssm:
		ssssm(t, piv, out[0], out[1])
	case kTrsm2:
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, in[0], out[0])
		blas.Trsm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, in[0], out[0])
		lapack.LaswpCols(out[0], piv, true)
	case kTrsmqr:
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, in[0], out[0])
		lapack.UnmqrRight(blas.Trans, in[0], t, out[0])
	default:
		panic(fmt.Sprintf("core: no tile kernel %d", kn))
	}
	return nil, nil
}

// maxRefs bounds the input and the output tiles of one tile kernel, so the
// harness keeps its per-task tile lists on the stack.
const maxRefs = 2

// tFactor is the factor one factor task leaves for its step's updates and
// the replay — T, a QR kernel's block reflector or an LU kernel's L\U, and
// the LU kernel's pivots — with the handle that orders the update tasks
// after it. t32 is T's float32 image, allocated only on a float32 step (at
// submit time, so the step's map writes stay single-threaded); the factor
// task keeps it in step with t — widened into t on an accepted float32
// factor, rounded from t after a demotion — so the resident updates and the
// replay read the same T.
type tFactor struct {
	t   *mat.Matrix
	t32 *mat.Matrix32
	piv []int
	h   *runtime.Handle
}

// newTFactor allocates the factor that kernel kn writes on tile row i of
// the step's panel, as tall as the kernels table says.
func (f *fact) newTFactor(st *stepState, kn kernel, i int) *tFactor {
	nb := f.nb
	rows := kernels[kn].tRows * nb
	tf := &tFactor{t: mat.New(rows, nb)}
	if st.f32 {
		tf.t32 = mat.NewMatrix32(rows, nb)
	}
	tf.h = f.e.NewHandle(fmt.Sprintf("T%s(%d,%d)", kernels[kn].name, i, st.k), rows*nb*8, f.owner(i, st.k))
	return tf
}

// handle returns the runtime handle of the tile t names.
func (f *fact) handle(t tile.Ref) *runtime.Handle {
	if t.IsRHS() {
		return f.hb[t.I]
	}
	return f.h[t.I][t.J]
}

// tile64 returns the float64 tile t names.
func (f *fact) tile64(t tile.Ref) *mat.Matrix { return t.Of(f.A, f.rhs) }

// submitTile submits one tile task of step st: kernel kn reading in and
// writing out, with T factor tf when the kernel uses one (nil otherwise).
// The accesses are the inputs read, T read, the outputs written, T
// written, in that order; the trace gets the kernel's name and its flops at
// the width of the first output tile.
func (f *fact) submitTile(st *stepState, kn kernel, name string, node, prio int, in, out []tile.Ref, tf *tFactor) {
	kd := &kernels[kn]
	acc := make([]runtime.Access, 0, len(in)+len(out)+1)
	for _, t := range in {
		acc = append(acc, runtime.R(f.handle(t)))
	}
	if kd.t == readsT {
		acc = append(acc, runtime.R(tf.h))
	}
	for _, t := range out {
		acc = append(acc, runtime.W(f.handle(t)))
	}
	if kd.t == writesT {
		acc = append(acc, runtime.W(tf.h))
	}
	// The task keeps one copy of the references, so the callers' lists
	// stay on their stacks.
	refs := append(append(make([]tile.Ref, 0, len(in)+len(out)), in...), out...)
	ins, outs := refs[:len(in)], refs[len(in):]
	f.e.Submit(runtime.TaskSpec{
		Name:      name,
		Kernel:    kd.name,
		Node:      node,
		Flops:     kd.flops(f.nb, f.tile64(out[0]).Cols),
		Priority:  prio,
		Accesses:  acc,
		RunTraced: func(tr *runtime.TraceTask) { f.runTile(tr, st, kn, ins, outs, tf) },
	})
}

// runTile runs a tile task at its step's precision. A float32 step runs the
// kernel on the tiles' resident images (run32); when that result is
// rejected, or on any other step, the kernel runs on the float64 tiles,
// after ensure64 has made them current. A float64 re-run of a float32 step
// counts a demotion and re-rounds a written T into its float32 image, so
// the step's remaining resident updates read the accepted T.
func (f *fact) runTile(tr *runtime.TraceTask, st *stepState, kn kernel, in, out []tile.Ref, tf *tFactor) {
	var m tile.Meter
	defer func() { tr.ChargeConv(m.NS) }()
	if st.f32 && f.run32(&m, kn, in, out, tf) {
		return
	}
	f.ensure64(&m, in...)
	f.ensure64(&m, out...)
	var t *mat.Matrix
	var piv []int
	if tf != nil {
		t, piv = tf.t, tf.piv
	}
	var in64, out64 [maxRefs]*mat.Matrix
	piv, err := apply(kn, f.ib, f.tiles64(in64[:len(in)], in), f.tiles64(out64[:len(out)], out), t, piv)
	f.keep(tf, piv, err)
	if st.f32 {
		if kernels[kn].t == writesT {
			tf.t32.RoundFrom(tf.t)
		}
		f.noteDemotion()
	}
}

// keep records what a factor kernel returns besides its tiles: GETRF's and
// TSTRF's pivots go to the factor, for its updates and the replay, and a
// zero pivot marks the run's breakdown.
func (f *fact) keep(tf *tFactor, piv []int, err error) {
	if piv != nil {
		tf.piv = piv
	}
	f.noteBreakdown(err)
}

// tiles64 fills dst with the float64 tiles refs name and returns it.
func (f *fact) tiles64(dst []*mat.Matrix, refs []tile.Ref) []*mat.Matrix {
	for i, t := range refs {
		dst[i] = f.tile64(t)
	}
	return dst
}

// run32 is the demotion harness of the resident float32 path. It acquires
// the out tiles' images (snapshotting only those that were already dirty —
// for the rest the float64 array is the epoch's master copy and a restore
// is free), acquires the in images, runs the kernel, and scans the out
// images and a written T. An accepted result widens a written T into its
// float64 copy (keeping it valid for replay and serialization) and keeps
// the kernel's pivots. On an
// excursion it rolls the outs back (restore-from-snapshot for dirty-before,
// plain image discard otherwise) and reports false, so a rejected float32
// result never leaks and a fully demoted run is bit-identical to a pure
// float64 one.
func (f *fact) run32(m *tile.Meter, kn kernel, in, out []tile.Ref, tf *tFactor) bool {
	var outArr, snapArr, inArr [maxRefs]*mat.Matrix32
	var bufArr [maxRefs]*mat.Buf[float32]
	outImgs, inImgs := outArr[:len(out)], inArr[:len(in)]
	snaps, bufs := snapArr[:len(out)], bufArr[:len(out)] // nil: the image was not dirty
	for idx, t := range out {
		img, dirty := f.res.Write32(t, m)
		outImgs[idx] = img
		if dirty {
			snaps[idx], bufs[idx] = mat.GetMatrix[float32](img.Rows, img.Cols)
			snaps[idx].CopyFrom(img)
		}
	}
	for idx, t := range in {
		inImgs[idx] = f.res.Read32(t, m)
	}
	var t32 *mat.Matrix32
	var piv []int
	if tf != nil {
		t32, piv = tf.t32, tf.piv
	}

	piv, err := apply(kn, f.ib, inImgs, outImgs, t32, piv)

	wroteT := kernels[kn].t == writesT
	ok := !f.excursion32(outImgs...) && !(wroteT && f.excursion32(t32))
	for idx, t := range out {
		if !ok {
			if snaps[idx] != nil {
				outImgs[idx].CopyFrom(snaps[idx])
			} else {
				f.res.Discard32(t)
			}
		}
		mat.PutBuf(bufs[idx])
	}
	if ok {
		if wroteT {
			t32.WidenInto(tf.t)
		}
		f.keep(tf, piv, err)
	}
	return ok
}
