package experiments

import (
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"time"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
)

// KernelBenchEntry is one machine-readable kernel measurement: the serial
// execution rate of one tile kernel at one tile order.
type KernelBenchEntry struct {
	Kernel  string  `json:"kernel"`
	NB      int     `json:"nb"`
	NsPerOp float64 `json:"ns_per_op"`
	GFlops  float64 `json:"gflops"`
}

// KernelBenchReport is the schema of BENCH_kernels.json: the committed seed
// baseline next to freshly measured numbers, so a regression (or a speedup)
// is visible from the file alone. Regenerate with
//
//	go run ./cmd/luqr-bench -json BENCH_kernels.json
type KernelBenchReport struct {
	Schema int    `json:"schema"`
	Go     string `json:"go"`
	GoArch string `json:"goarch"`
	// KernelF64 and KernelF32 name the kernel tables the current section
	// ran on (blas.KernelID): rates from different tables compare
	// micro-kernels, not code changes.
	KernelF64 string             `json:"kernel_f64"`
	KernelF32 string             `json:"kernel_f32"`
	Reps      int                `json:"reps"`
	Seed      []KernelBenchEntry `json:"seed_baseline"`
	Current   []KernelBenchEntry `json:"current"`
}

// seedKernelBaseline records the kernel rates of the pre-packed-GEMM code
// (naive three-loop blocked Gemm) measured on the reference host — a
// single-core Intel Xeon @ 2.10GHz, go1.24, default GOAMD64=v1 — immediately
// before the BLIS-style rewrite. It is the fixed "before" of the
// before/after comparison; the "current" section is remeasured on every
// regeneration.
var seedKernelBaseline = []KernelBenchEntry{
	{Kernel: "GEMM", NB: 128, NsPerOp: 1458535, GFlops: 2.876},
	{Kernel: "GEMM", NB: 256, NsPerOp: 11028176, GFlops: 3.043},
}

// KernelBenchNBs are the tile orders measured by WriteKernelBench: the two
// seed-baseline sizes, the historical default experiment tile order (40),
// and the solver sweep's production default (192).
var KernelBenchNBs = []int{40, 128, 192, 256}

// WriteKernelBench measures every Table I kernel at each tile order in nbs,
// at float64 and (under ".f32"-suffixed names) at float32, and writes the
// JSON report (seed baseline + current) to out. GFLOP/s uses the Table I
// model flop counts, so rates are comparable across kernels and precisions.
func WriteKernelBench(nbs []int, reps int, out io.Writer) error {
	rep := KernelBenchReport{
		Schema:    1,
		Go:        runtime.Version(),
		GoArch:    runtime.GOARCH,
		KernelF64: blas.KernelID[float64](),
		KernelF32: blas.KernelID[float32](),
		Reps:      reps,
		Seed:      seedKernelBaseline,
	}
	add := func(suffix string, nb int, ks []kernelTiming) {
		for _, k := range ks {
			ns := k.sec * 1e9
			gf := 0.0
			if ns > 0 {
				gf = k.flops / ns // flops / ns == GFLOP/s
			}
			rep.Current = append(rep.Current, KernelBenchEntry{
				Kernel: k.kernel + suffix, NB: nb, NsPerOp: ns, GFlops: gf,
			})
		}
	}
	for _, nb := range nbs {
		add("", nb, timeTableI[float64](nb, reps))
		add(".f32", nb, timeTableI[float32](nb, reps))
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// kernelTiming is one measured Table I kernel: its model flops and its
// seconds per call.
type kernelTiming struct {
	kernel string
	flops  float64
	sec    float64
}

// kernelBenchWall is how long one timing window runs a kernel: a single
// nb=40 call is a few microseconds, so one call alone would time the clock.
const kernelBenchWall = 10 * time.Millisecond

// timeTableI times the nine Table I kernels at tile order nb on element
// type T, one method for both types: after a warm-up call, each of reps
// windows runs the kernel for kernelBenchWall and yields the mean time of
// its calls; the best window wins. A kernel that rescales its operand in
// place (TRSM and the factorizations) restores it from a copy before each
// call, outside the timed region — repeated in place, the operand would
// drift into denormals and time those instead.
func timeTableI[T mat.Float](nb, reps int) []kernelTiming {
	rng := rand.New(rand.NewSource(99))
	tile := func() *mat.Dense[T] {
		return &mat.Dense[T]{Rows: nb, Cols: nb, Stride: nb, Data: make([]T, nb*nb)}
	}
	randTile := func() *mat.Dense[T] {
		m := tile()
		for i := range m.Data {
			m.Data[i] = T(rng.NormFloat64())
		}
		return m
	}
	upperTile := func() *mat.Dense[T] {
		m := randTile()
		for i := 0; i < nb; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, 0)
			}
			m.Set(i, i, m.At(i, i)+T(nb)) // keep solves well posed
		}
		return m
	}
	// restorer returns a copy of m's current content and the call that puts
	// it back.
	restorer := func(ms ...*mat.Dense[T]) func() {
		saved := make([]*mat.Dense[T], len(ms))
		for i, m := range ms {
			saved[i] = m.Clone()
		}
		return func() {
			for i, m := range ms {
				m.CopyFrom(saved[i])
			}
		}
	}
	type kernelCase struct {
		kernel string
		flops  float64
		// setup returns the call to time and, for an in-place kernel, the
		// restore to run before each call (nil otherwise).
		setup func() (call, restore func())
	}
	cases := []kernelCase{
		{"GETRF", flops.Getrf(nb, nb), func() (func(), func()) {
			a := randTile()
			// Timing only: a Gaussian tile is nonsingular with probability 1.
			return func() { _, _ = lapack.Getrf(a) }, restorer(a)
		}},
		{"TRSM", flops.Trsm(nb, nb), func() (func(), func()) {
			u, b := upperTile(), randTile()
			return func() { blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, u, b) }, restorer(b)
		}},
		{"GEMM", flops.Gemm(nb, nb, nb), func() (func(), func()) {
			a, b, c := randTile(), randTile(), randTile()
			return func() { blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c) }, nil
		}},
		{"GEQRT", flops.Geqrt(nb, nb), func() (func(), func()) {
			a, t := randTile(), tile()
			return func() { lapack.Geqrt(a, t) }, restorer(a)
		}},
		{"TSQRT", flops.Tsqrt(nb), func() (func(), func()) {
			r, a, t := upperTile(), randTile(), tile()
			return func() { lapack.Tsqrt(r, a, t) }, restorer(r, a)
		}},
		{"TSMQR", flops.Tsmqr(nb, nb), func() (func(), func()) {
			r, a, t := upperTile(), randTile(), tile()
			lapack.Tsqrt(r, a, t)
			c1, c2 := randTile(), randTile()
			return func() { lapack.Tsmqr(blas.Trans, a, t, c1, c2) }, nil
		}},
		{"UNMQR", flops.Unmqr(nb, nb), func() (func(), func()) {
			a, t := randTile(), tile()
			lapack.Geqrt(a, t)
			c := randTile()
			return func() { lapack.Unmqr(blas.Trans, a, t, c) }, nil
		}},
		{"TTQRT", flops.Ttqrt(nb), func() (func(), func()) {
			r1, r2, t := upperTile(), upperTile(), tile()
			return func() { lapack.Ttqrt(r1, r2, t) }, restorer(r1, r2)
		}},
		{"TTMQR", flops.Ttmqr(nb, nb), func() (func(), func()) {
			r1, r2, t := upperTile(), upperTile(), tile()
			lapack.Ttqrt(r1, r2, t)
			c1, c2 := randTile(), randTile()
			return func() { lapack.Ttmqr(blas.Trans, r2, t, c1, c2) }, nil
		}},
	}
	out := make([]kernelTiming, len(cases))
	for i, c := range cases {
		call, restore := c.setup()
		if restore == nil {
			restore = func() {}
		}
		restore()
		call() // warm pools and dispatch before timing
		best := 0.0
		for r := 0; r < reps; r++ {
			var busy time.Duration
			calls := 0
			for t0 := time.Now(); time.Since(t0) < kernelBenchWall; calls++ {
				restore()
				c0 := time.Now()
				call()
				busy += time.Since(c0)
			}
			if d := busy.Seconds() / float64(calls); best == 0 || d < best {
				best = d
			}
		}
		out[i] = kernelTiming{kernel: c.kernel, flops: c.flops, sec: best}
	}
	return out
}
