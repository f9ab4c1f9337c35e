// Package luqr's top-level benchmarks regenerate the paper's evaluation
// artifacts as testing.B targets:
//
//	BenchmarkTable1Kernel*    Table I   per-kernel costs
//	BenchmarkTable2*          Table II  the algorithm performance ladder
//	BenchmarkFig2Criterion*   Figure 2  criterion sweeps (performance axis)
//	BenchmarkFig3Special*     Figure 3  special-matrix runs
//	BenchmarkAblation*        DESIGN.md ablations: reduction trees, pivot
//	                          scope, decision-path overhead
//	BenchmarkPanel*           blocked GETRF/GEQRT panels at production tile
//	                          orders (GFLOP/s reported per op)
//	BenchmarkSolverProduction end-to-end hybrid solve at nb=192
//
// Absolute numbers are pure-Go on the local host; the shapes (LU vs QR cost
// ratio, tree critical paths, criterion overhead) are the reproduction
// targets. Run with: go test -bench=. -benchmem .
package luqr

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/sim"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

const (
	benchNB = 40
	benchNT = 8
	benchN  = benchNB * benchNT
)

func benchSystem(seed int64) (*mat.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	return matgen.Random(benchN, rng), matgen.RandomVector(benchN, rng)
}

func benchTile(rng *rand.Rand, nb int) *mat.Matrix {
	m := mat.New(nb, nb)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func benchUpper(rng *rand.Rand, nb int) *mat.Matrix {
	m := benchTile(rng, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, 0)
		}
		m.Set(i, i, m.At(i, i)+float64(nb))
	}
	return m
}

// --- Table I: kernel benchmarks -----------------------------------------

const kernelNB = 128

func BenchmarkTable1KernelGETRF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := benchTile(rng, kernelNB)
	work := a.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(a)
		if _, err := lapack.Getrf(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1KernelTRSM restores c before every solve: solving in place
// divides it by about nb per call, so within a few hundred calls it would
// decay through subnormals to zero and the benchmark would time zeros.
func BenchmarkTable1KernelTRSM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	t := benchUpper(rng, kernelNB)
	c0 := benchTile(rng, kernelNB)
	c := c0.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CopyFrom(c0)
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t, c)
	}
}

func benchGemmNB(b *testing.B, nb int) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	x, y, c := benchTile(rng, nb), benchTile(rng, nb), benchTile(rng, nb)
	b.SetBytes(int64(nb * nb * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, x, y, 1, c)
	}
	b.StopTimer()
	gflops := 2 * float64(nb) * float64(nb) * float64(nb) / 1e9
	b.ReportMetric(gflops*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
}

func BenchmarkTable1KernelGEMM(b *testing.B)    { benchGemmNB(b, kernelNB) }
func BenchmarkTable1KernelGEMM256(b *testing.B) { benchGemmNB(b, 256) }

func BenchmarkTable1KernelGEQRT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := benchTile(rng, kernelNB)
	t := mat.New(kernelNB, kernelNB)
	work := a.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(a)
		lapack.Geqrt(work, t)
	}
}

func BenchmarkTable1KernelTSQRT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	r0, a0 := benchUpper(rng, kernelNB), benchTile(rng, kernelNB)
	r, a, t := r0.Clone(), a0.Clone(), mat.New(kernelNB, kernelNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CopyFrom(r0)
		a.CopyFrom(a0)
		lapack.Tsqrt(r, a, t)
	}
}

func BenchmarkTable1KernelTSMQR(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	r, v, t := benchUpper(rng, kernelNB), benchTile(rng, kernelNB), mat.New(kernelNB, kernelNB)
	lapack.Tsqrt(r, v, t)
	c1, c2 := benchTile(rng, kernelNB), benchTile(rng, kernelNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lapack.Tsmqr(blas.Trans, v, t, c1, c2)
	}
}

func BenchmarkTable1KernelUNMQR(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	v, t := benchTile(rng, kernelNB), mat.New(kernelNB, kernelNB)
	lapack.Geqrt(v, t)
	c := benchTile(rng, kernelNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lapack.Unmqr(blas.Trans, v, t, c)
	}
}

func BenchmarkTable1KernelTTQRT(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	r10, r20 := benchUpper(rng, kernelNB), benchUpper(rng, kernelNB)
	r1, r2, t := r10.Clone(), r20.Clone(), mat.New(kernelNB, kernelNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1.CopyFrom(r10)
		r2.CopyFrom(r20)
		lapack.Ttqrt(r1, r2, t)
	}
}

func BenchmarkTable1KernelTTMQR(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	r1, r2, t := benchUpper(rng, kernelNB), benchUpper(rng, kernelNB), mat.New(kernelNB, kernelNB)
	lapack.Ttqrt(r1, r2, t)
	c1, c2 := benchTile(rng, kernelNB), benchTile(rng, kernelNB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lapack.Ttmqr(blas.Trans, r2, t, c1, c2)
	}
}

// --- Blocked panel kernels at production tile orders ----------------------
//
// The blocked (ib-partitioned) GETRF/GEQRT forms route the O(nb³) panel work
// through the packed GEMM path; these benchmarks report GFLOP/s directly so
// the panel-vs-update gap is visible from `go test -bench Panel`.

func benchGetrfNB(b *testing.B, nb int) {
	b.Helper()
	rng := rand.New(rand.NewSource(10))
	a := benchTile(rng, nb)
	work := a.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(a)
		if _, err := lapack.Getrf(work); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	gflops := 2.0 / 3.0 * float64(nb) * float64(nb) * float64(nb) / 1e9
	b.ReportMetric(gflops*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
}

func BenchmarkPanelGETRF128(b *testing.B) { benchGetrfNB(b, 128) }
func BenchmarkPanelGETRF192(b *testing.B) { benchGetrfNB(b, 192) }
func BenchmarkPanelGETRF256(b *testing.B) { benchGetrfNB(b, 256) }

func benchGeqrtNB(b *testing.B, nb int) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	a := benchTile(rng, nb)
	t := mat.New(nb, nb)
	work := a.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(a)
		lapack.Geqrt(work, t)
	}
	b.StopTimer()
	gflops := 4.0 / 3.0 * float64(nb) * float64(nb) * float64(nb) / 1e9
	b.ReportMetric(gflops*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
}

func BenchmarkPanelGEQRT128(b *testing.B) { benchGeqrtNB(b, 128) }
func BenchmarkPanelGEQRT192(b *testing.B) { benchGeqrtNB(b, 192) }

// BenchmarkSolverProductionTiles is the end-to-end headline shape at a
// production tile order (LUQR, Random α=50, FlatTS/Fibonacci on a 2×2 grid
// at nb=192, sized for bench-friendly wall time), reporting sustained
// GFLOP/s per op.
func BenchmarkSolverProductionTiles(b *testing.B) {
	const n, nb = 1536, 192
	rng := rand.New(rand.NewSource(12))
	a := matgen.Random(n, rng)
	rhs := matgen.RandomVector(n, rng)
	cfg := core.Config{
		Alg: core.LUQR, NB: nb, Grid: tile.NewGrid(2, 2),
		Criterion: criteria.Random{Alpha: 50}, Seed: 1,
		IntraTree: tree.FlatTS, InterTree: tree.Fibonacci,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(a, rhs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(res.Report.HPL3) {
			b.Fatal("NaN result")
		}
	}
	b.StopTimer()
	gflops := flops.GFlops(flops.LUTotal(n), b.Elapsed().Seconds()/float64(b.N))
	b.ReportMetric(gflops, "GFLOP/s")
}

// --- Table II: the algorithm ladder --------------------------------------

func benchRun(b *testing.B, cfg core.Config) {
	b.Helper()
	a, rhs := benchSystem(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(a, rhs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(res.Report.HPL3) {
			b.Fatal("NaN result")
		}
	}
}

func BenchmarkTable2LUNoPiv(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUNoPiv, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}

func BenchmarkTable2LUIncPiv(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUIncPiv, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}

func BenchmarkTable2LUQRAlphaInf(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Always{}})
}

func BenchmarkTable2LUQRAlphaMid(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 100}})
}

func BenchmarkTable2LUQRAlphaZero(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Never{}})
}

func BenchmarkTable2HQR(b *testing.B) {
	benchRun(b, core.Config{Alg: core.HQR, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}

func BenchmarkTable2LUPP(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUPP, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}

// --- Figure 2: criterion cost --------------------------------------------

func BenchmarkFig2CriterionMax(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 100}})
}

func BenchmarkFig2CriterionSum(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Sum{Alpha: 100}})
}

func BenchmarkFig2CriterionMUMPS(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.MUMPS{Alpha: 2.1}})
}

func BenchmarkFig2CriterionRandom(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Random{Alpha: 50}, Seed: 1})
}

// --- Figure 3: special matrices -------------------------------------------

func benchSpecial(b *testing.B, name string) {
	b.Helper()
	ent, err := matgen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := ent.Gen(benchN, rng)
	rhs := matgen.RandomVector(benchN, rng)
	cfg := core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(4, 1), Criterion: criteria.Max{Alpha: 30}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(a, rhs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3SpecialWilkinson(b *testing.B) { benchSpecial(b, "wilkinson") }
func BenchmarkFig3SpecialFoster(b *testing.B)    { benchSpecial(b, "foster") }
func BenchmarkFig3SpecialFiedler(b *testing.B)   { benchSpecial(b, "fiedler") }
func BenchmarkFig3SpecialDemmel(b *testing.B)    { benchSpecial(b, "demmel") }

// --- Ablations -------------------------------------------------------------

func benchTreeAblation(b *testing.B, intra, inter tree.Tree) {
	b.Helper()
	benchRun(b, core.Config{Alg: core.HQR, NB: benchNB, Grid: tile.NewGrid(4, 1), IntraTree: intra, InterTree: inter})
}

func BenchmarkAblationTreeFlatTS(b *testing.B)    { benchTreeAblation(b, tree.FlatTS, tree.FlatTT) }
func BenchmarkAblationTreeBinary(b *testing.B)    { benchTreeAblation(b, tree.Binary, tree.Binary) }
func BenchmarkAblationTreeGreedyFib(b *testing.B) { benchTreeAblation(b, tree.Greedy, tree.Fibonacci) }

func BenchmarkAblationScopeTile(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Scope: core.ScopeTile, Criterion: criteria.Always{}})
}

func BenchmarkAblationScopeDomain(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(2, 2), Scope: core.ScopeDomain, Criterion: criteria.Always{}})
}

// --- Infrastructure ---------------------------------------------------------

// BenchmarkRuntimeTaskThroughput measures the task engine's scheduling
// overhead with trivial tasks on a dependency chain mix.
func BenchmarkRuntimeTaskThroughput(b *testing.B) {
	e := runtime.NewEngine(runtime.Config{Workers: 4})
	defer e.Close()
	hs := make([]*runtime.Handle, 16)
	for i := range hs {
		hs[i] = e.NewHandle("h", 8, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Submit(runtime.TaskSpec{
			Accesses: []runtime.Access{runtime.W(hs[i%16])},
			Run:      func() {},
		})
	}
	e.Wait()
}

// BenchmarkSimReplay measures the discrete-event simulator on a real hybrid
// trace.
func BenchmarkSimReplay(b *testing.B) {
	a, rhs := benchSystem(2)
	res, err := core.Run(a, rhs, core.Config{Alg: core.LUQR, NB: benchNB, Grid: tile.NewGrid(4, 4), Trace: true, Criterion: criteria.Max{Alpha: 100}})
	if err != nil {
		b.Fatal(err)
	}
	m := sim.Dancer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(res.Report.Trace, m, nil)
	}
}

// --- Extensions: CALU and the §II-C variants --------------------------------

func BenchmarkExtensionCALU(b *testing.B) {
	benchRun(b, core.Config{Alg: core.CALU, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}

func BenchmarkExtensionVariantA2(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, Variant: core.VarA2, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 500}})
}

func BenchmarkExtensionVariantB1(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, Variant: core.VarB1, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 500}})
}

func BenchmarkExtensionVariantB2(b *testing.B) {
	benchRun(b, core.Config{Alg: core.LUQR, Variant: core.VarB2, NB: benchNB, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 500}})
}

func BenchmarkExtensionHLU(b *testing.B) {
	benchRun(b, core.Config{Alg: core.HLU, NB: benchNB, Grid: tile.NewGrid(2, 2)})
}
