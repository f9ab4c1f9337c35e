package main

import (
	"math/rand"
	"time"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	rt "luqr/internal/runtime"
)

// Isolated probes time one layer's entry point alone, outside any DAG, so
// that in-DAG rates can be told apart from kernel speed.

const (
	probeReps = 3
	probeWall = 60 * time.Millisecond
)

// isoKernel is one isolated kernel probe: the per-layer metric it feeds,
// its model flops and a set-up returning the call to time.
type isoKernel struct {
	metric string
	flops  float64
	setup  func() func()
}

// isoKernels lists the probes at tile order nb and inner block ib, each
// through the entry point production runs: f64 BLAS, the blocked LAPACK
// panels and updates, and the resident float32 BLAS.
func isoKernels(nb, ib int) []isoKernel {
	rng := rand.New(rand.NewSource(7))
	dense := func() *mat.Matrix {
		m := mat.New(nb, nb)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	upper := func() *mat.Matrix {
		m := dense()
		for i := 0; i < nb; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, 0)
			}
			m.Set(i, i, m.At(i, i)+float64(nb)) // a well-posed triangle
		}
		return m
	}
	round := func(m *mat.Matrix) *mat.Matrix32 {
		r := mat.NewMatrix32(nb, nb)
		r.RoundFrom(m)
		return r
	}
	// refresh restores dst from src before an in-place factorization.
	refresh := func(dst, src *mat.Matrix) { dst.CopyFrom(src) }
	return []isoKernel{
		{"blas.gemm", flops.Gemm(nb, nb, nb), func() func() {
			a, b, c := dense(), dense(), dense()
			return func() { blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c) }
		}},
		{"blas.trsm", flops.Trsm(nb, nb), func() func() {
			u, b := upper(), dense()
			return func() { blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, u, b) }
		}},
		{"blas.gemm32r", flops.Gemm(nb, nb, nb), func() func() {
			a, b, c := round(dense()), round(dense()), round(dense())
			return func() { blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c) }
		}},
		{"blas.trsm32r", flops.Trsm(nb, nb), func() func() {
			u, b := round(upper()), round(dense())
			return func() { blas.Trsm32R(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, u, b) }
		}},
		{"lapack.getrf", flops.Getrf(nb, nb), func() func() {
			src, a := dense(), mat.New(nb, nb)
			// Timing only: a Gaussian tile is nonsingular with probability 1.
			return func() { refresh(a, src); _, _ = lapack.Getrf(a) }
		}},
		{"lapack.geqrt", flops.Geqrt(nb, nb), func() func() {
			src, a, t := dense(), mat.New(nb, nb), mat.New(nb, nb)
			return func() { refresh(a, src); lapack.GeqrtIB(a, t, ib) }
		}},
		{"lapack.ttqrt", flops.Ttqrt(nb), func() func() {
			s1, s2 := upper(), upper()
			r1, r2, t := mat.New(nb, nb), mat.New(nb, nb), mat.New(nb, nb)
			return func() { refresh(r1, s1); refresh(r2, s2); lapack.TtqrtIB(r1, r2, t, ib) }
		}},
		{"lapack.unmqr", flops.Unmqr(nb, nb), func() func() {
			v, t, c := dense(), mat.New(nb, nb), dense()
			lapack.GeqrtIB(v, t, ib)
			return func() { lapack.Unmqr(blas.Trans, v, t, c) }
		}},
		{"lapack.ttmqr", flops.Ttmqr(nb, nb), func() func() {
			r1, v2, t := upper(), upper(), mat.New(nb, nb)
			lapack.TtqrtIB(r1, v2, t, ib)
			c1, c2 := dense(), dense()
			return func() { lapack.Ttmqr(blas.Trans, v2, t, c1, c2) }
		}},
	}
}

// probeKernels times every isolated kernel and reports its GFLOP/s as
// "<layer>.<kernel>.iso_gflops".
func probeKernels(r *report, nb, ib int) {
	for _, k := range isoKernels(nb, ib) {
		op := k.setup()
		t0 := time.Now()
		sec := perOpSeconds(probeReps, probeWall, op)
		r.rec.add("probe", k.metric, 0, 0, t0, time.Now())
		r.addLayer(k.metric+".iso_gflops", flops.GFlops(k.flops, sec), "GFLOP/s", probeReps)
	}
}

// dispatchTasks no-op tasks spread over dispatchHandles independent write
// chains measure the runtime's per-task dispatch cost.
const (
	dispatchTasks   = 50000
	dispatchHandles = 64
)

// probeDispatch floods an engine of 2 workers with no-op tasks and reports
// the median wall nanoseconds per task.
func probeDispatch(r *report) {
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		e := rt.NewEngine(rt.Config{Workers: 2})
		hs := make([]*rt.Handle, dispatchHandles)
		for i := range hs {
			hs[i] = e.NewHandle("x", 8, 0)
		}
		for i := 0; i < dispatchTasks; i++ {
			e.Submit(rt.TaskSpec{Name: "t", Accesses: []rt.Access{rt.W(hs[i%dispatchHandles])}})
		}
		e.Wait()
		e.Close()
		t1 := time.Now()
		r.rec.add("probe", "runtime.dispatch", 0, 0, t0, t1)
		ns = append(ns, float64(t1.Sub(t0).Nanoseconds())/dispatchTasks)
	}
	r.addLayer("runtime.dispatch_ns", median(ns), "ns", probeReps)
}

// probeGen times one generator call at the workload's class and order, and
// reports and returns the median milliseconds.
func probeGen(r *report, class string, n int, seed int64) (float64, error) {
	e, err := matgen.ByName(class)
	if err != nil {
		return 0, err
	}
	e.Gen(n, rand.New(rand.NewSource(seed))) // warm the allocator's pages
	var ms []float64
	for rep := 0; rep < 2*probeReps+1; rep++ {
		t0 := time.Now()
		e.Gen(n, rand.New(rand.NewSource(seed)))
		t1 := time.Now()
		r.rec.add("matgen", class, 0, 0, t0, t1)
		ms = append(ms, t1.Sub(t0).Seconds()*1e3)
	}
	v := median(ms)
	r.addLayer("matgen.gen_ms", v, "ms", len(ms))
	return v, nil
}
