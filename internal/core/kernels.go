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

// kernel is one of the Table I tile kernels the LU and QR steps run at
// both precisions. A tile task is declared once, as a kernel plus the tiles
// it reads (in), the tiles it writes (out) and, for the QR kernels, the
// step's T factor; submitTile derives the task's accesses, trace label and
// flops from that, and runTile runs apply at the step's precision.
type kernel int

const (
	kTrsm  kernel = iota // A_ik ← A_ik·U_kk⁻¹
	kGemm                // C ← C − A·B
	kGeqrt               // QR of a tile, T written
	kUnmqr               // C ← Qᵀ·C by GEQRT's reflectors
	kTsqrt               // QR of a triangle on a square tile, T written
	kTtqrt               // QR of a triangle on a triangle, T written
	kTsmqr               // [C1; C2] ← Qᵀ·[C1; C2] by TSQRT's reflectors
	kTtmqr               // [C1; C2] ← Qᵀ·[C1; C2] by TTQRT's reflectors
)

// tUse says how a kernel touches the T factor of its step.
type tUse int8

const (
	noT tUse = iota
	readsT
	writesT
)

// kernels gives each kernel's trace name, its flops on nb×nb tiles when its
// output tiles are w columns wide (nb, or the right-hand side's width), and
// its use of T.
var kernels = [...]struct {
	name  string
	flops func(nb, w int) float64
	t     tUse
}{
	kTrsm:  {"TRSM", func(nb, _ int) float64 { return flops.Trsm(nb, nb) }, noT},
	kGemm:  {"GEMM", func(nb, w int) float64 { return flops.Gemm(nb, w, nb) }, noT},
	kGeqrt: {"GEQRT", func(nb, _ int) float64 { return flops.Geqrt(nb, nb) }, writesT},
	kUnmqr: {"UNMQR", flops.Unmqr, readsT},
	kTsqrt: {"TSQRT", func(nb, _ int) float64 { return flops.Tsqrt(nb) }, writesT},
	kTtqrt: {"TTQRT", func(nb, _ int) float64 { return flops.Ttqrt(nb) }, writesT},
	kTsmqr: {"TSMQR", flops.Tsmqr, readsT},
	kTtmqr: {"TTMQR", flops.Ttmqr, readsT},
}

// apply runs kernel kn on in and out (in the order the task declared them)
// with T factor t and inner block size ib, at either precision.
func apply[T mat.Float](kn kernel, ib int, in, out []*mat.Dense[T], t *mat.Dense[T]) {
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
	default:
		panic(fmt.Sprintf("core: no tile kernel %d", kn))
	}
}

// maxRefs bounds the input and the output tiles of one tile kernel, so the
// harness keeps its per-task tile lists on the stack.
const maxRefs = 2

// tFactor is the block reflector T of one QR factor task and the handle
// that orders the step's update tasks after it. t32 is its float32 image,
// allocated only on a float32 step (at submit time, so the step's map
// writes stay single-threaded); the factor task keeps it in step with t —
// widened into t on an accepted float32 factor, rounded from t after a
// demotion — so the resident updates and the replay read the same T.
type tFactor struct {
	t   *mat.Matrix
	t32 *mat.Matrix32
	h   *runtime.Handle
}

// newTFactor allocates the T factor of a factor task on tile row i of
// panel k; name is its handle's label.
func (f *fact) newTFactor(st *stepState, name string, i int) *tFactor {
	nb := f.nb
	tf := &tFactor{t: mat.New(nb, nb)}
	if st.f32 {
		tf.t32 = mat.NewMatrix32(nb, nb)
	}
	tf.h = f.e.NewHandle(fmt.Sprintf("%s(%d,%d)", name, i, st.k), nb*nb*8, f.owner(i, st.k))
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
	if tf != nil {
		t = tf.t
	}
	var in64, out64 [maxRefs]*mat.Matrix
	apply(kn, f.ib, f.tiles64(in64[:len(in)], in), f.tiles64(out64[:len(out)], out), t)
	if st.f32 {
		if kernels[kn].t == writesT {
			tf.t32.RoundFrom(tf.t)
		}
		f.noteDemotion()
	}
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
// float64 copy (keeping it valid for replay and serialization). On an
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
	if tf != nil {
		t32 = tf.t32
	}

	apply(kn, f.ib, inImgs, outImgs, t32)

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
	if ok && wroteT {
		t32.WidenInto(tf.t)
	}
	return ok
}
