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
	Schema  int                `json:"schema"`
	Go      string             `json:"go"`
	GoArch  string             `json:"goarch"`
	Reps    int                `json:"reps"`
	Seed    []KernelBenchEntry `json:"seed_baseline"`
	Current []KernelBenchEntry `json:"current"`
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

// WriteKernelBench measures every Table I kernel at each tile order in nbs
// and writes the JSON report (seed baseline + current) to out. GFLOP/s uses
// the Table I model flop counts, so rates are comparable across kernels.
func WriteKernelBench(nbs []int, reps int, out io.Writer) error {
	rep := KernelBenchReport{
		Schema: 1,
		Go:     runtime.Version(),
		GoArch: runtime.GOARCH,
		Reps:   reps,
		Seed:   seedKernelBaseline,
	}
	for _, nb := range nbs {
		unit := float64(nb) * float64(nb) * float64(nb)
		for _, c := range Table1(nb, reps, nil) {
			ns := c.MeasuredMs * 1e6
			gf := 0.0
			if ns > 0 {
				gf = c.ModelUnits * unit / ns // flops / ns == GFLOP/s
			}
			rep.Current = append(rep.Current, KernelBenchEntry{
				Kernel: c.Kernel, NB: nb, NsPerOp: ns, GFlops: gf,
			})
		}
		rep.Current = append(rep.Current, measureGemm32(nb, reps))
		rep.Current = append(rep.Current, measureQRUpdates32(nb, reps)...)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// round32 returns float32(m) as a tile image — the operand form of the
// float32 kernels the mixed-precision path runs.
func round32(m *mat.Matrix) *mat.Matrix32 {
	img := mat.NewMatrix32(m.Rows, m.Cols)
	img.RoundFrom(m)
	return img
}

// measureGemm32 times the float32 packed GEMM (Gemm32R on tile images) at
// one tile order, reported under the "GEMM.f32" kernel name with the same
// flop model as GEMM — so the GFLOP/s ratio against the GEMM row at the
// same nb is the mixed-precision path's kernel speedup.
func measureGemm32(nb, reps int) KernelBenchEntry {
	rng := rand.New(rand.NewSource(99))
	randTile := func() *mat.Matrix32 {
		m := mat.New(nb, nb)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return round32(m)
	}
	a, b, c := randTile(), randTile(), randTile()
	// Warm the f32 packing pools and the dispatch path before timing, then
	// amortize the measurement over enough calls to outlast timer noise — a
	// single nb=192 call is a few hundred microseconds.
	blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c)
	best := 0.0
	for r := 0; r < reps; r++ {
		const minWall = 10 * time.Millisecond
		iters := 0
		t0 := time.Now()
		for time.Since(t0) < minWall {
			blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c)
			iters++
		}
		d := time.Since(t0).Seconds() / float64(iters)
		if best == 0 || d < best {
			best = d
		}
	}
	ns := best * 1e9
	gf := 0.0
	if ns > 0 {
		gf = flops.Gemm(nb, nb, nb) / ns
	}
	return KernelBenchEntry{Kernel: "GEMM.f32", NB: nb, NsPerOp: ns, GFlops: gf}
}

// measureQRUpdates32 times the float32 QR update kernels — Unmqr32R,
// Tsmqr32R, Ttmqr32R on tile images rounded from f64-factored tiles — at
// one tile order, reported under ".f32"-suffixed kernel names with the
// Table I flop models. Against the f64 base rows from Table1 these give
// `-diff-kernels` its f32/f64 ratios for the QR side of the mixed path.
func measureQRUpdates32(nb, reps int) []KernelBenchEntry {
	rng := rand.New(rand.NewSource(101))
	randTile := func() *mat.Matrix {
		m := mat.New(nb, nb)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	upperTile := func() *mat.Matrix {
		m := randTile()
		for i := 0; i < nb; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, 0)
			}
			m.Set(i, i, m.At(i, i)+float64(nb)) // keep solves well posed
		}
		return m
	}
	timeOne := func(kernel string, model float64, setup func() func()) KernelBenchEntry {
		op := setup()
		op() // warm pools and dispatch before timing
		best := 0.0
		for r := 0; r < reps; r++ {
			const minWall = 10 * time.Millisecond
			iters := 0
			t0 := time.Now()
			for time.Since(t0) < minWall {
				op()
				iters++
			}
			d := time.Since(t0).Seconds() / float64(iters)
			if best == 0 || d < best {
				best = d
			}
		}
		ns := best * 1e9
		gf := 0.0
		if ns > 0 {
			gf = model / ns
		}
		return KernelBenchEntry{Kernel: kernel, NB: nb, NsPerOp: ns, GFlops: gf}
	}
	return []KernelBenchEntry{
		timeOne("UNMQR.f32", flops.Unmqr(nb, nb), func() func() {
			a, t := randTile(), mat.New(nb, nb)
			lapack.Geqrt(a, t)
			v32, t32, c := round32(a), round32(t), round32(randTile())
			return func() { lapack.Unmqr32R(blas.Trans, v32, t32, c) }
		}),
		timeOne("TSMQR.f32", flops.Tsmqr(nb, nb), func() func() {
			r, a, t := upperTile(), randTile(), mat.New(nb, nb)
			lapack.Tsqrt(r, a, t)
			v32, t32 := round32(a), round32(t)
			c1, c2 := round32(randTile()), round32(randTile())
			return func() { lapack.Tsmqr32R(blas.Trans, v32, t32, c1, c2) }
		}),
		timeOne("TTMQR.f32", flops.Ttmqr(nb, nb), func() func() {
			r1, r2, t := upperTile(), upperTile(), mat.New(nb, nb)
			lapack.Ttqrt(r1, r2, t)
			v32, t32 := round32(r2), round32(t)
			c1, c2 := round32(randTile()), round32(randTile())
			return func() { lapack.Ttmqr32R(blas.Trans, v32, t32, c1, c2) }
		}),
	}
}
