package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// withPortableKernels runs f on the portable float64 kernels — the 4×4
// micro-kernel and the scalar level-1 loops — restoring the init-time
// selection afterwards. It lets the suite exercise the portable arithmetic
// on hosts where init picked the assembly kernels (the reverse needs no
// hook: the portable kernels are always available).
func withPortableKernels(f func()) {
	mr0, nr0, k0, n0, t0 := gemmMR, gemmNR, gemmKernel, gemmNarrowN, gemmNarrowT
	axpy0, dot0 := axpyKernel, dotKernel
	gemmMR, gemmNR, gemmKernel, gemmNarrowN, gemmNarrowT = 4, 4, kernelGeneric4x4, narrowNGeneric, narrowTGeneric
	axpyKernel, dotKernel = nil, nil
	defer func() {
		gemmMR, gemmNR, gemmKernel, gemmNarrowN, gemmNarrowT = mr0, nr0, k0, n0, t0
		axpyKernel, dotKernel = axpy0, dot0
	}()
	f()
}

// forEachKernel runs check as the subtests "hostKernel" (the init-time
// selection) and "portableKernel".
func forEachKernel(t *testing.T, check func(t *testing.T)) {
	t.Run("hostKernel", check)
	t.Run("portableKernel", func(t *testing.T) { withPortableKernels(func() { check(t) }) })
}

// viewOf embeds a fresh random r×c matrix inside a larger parent so that
// Stride != Cols, returning the interior view.
func viewOf(rng *rand.Rand, r, c int) *mat.Matrix {
	parent := randMat(rng, r+3, c+5)
	return parent.View(1, 2, r, c)
}

// TestGemmPackedTable cross-checks the packed Gemm against the naive
// reference over all four transpose variants, odd and rectangular shapes
// (including micro-tile fringes and cache-block boundaries), the
// alpha/beta special cases, and strided submatrix views, under both the
// host-selected kernel and the forced portable kernel.
func TestGemmPackedTable(t *testing.T) {
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1},
		{3, 5, 7},
		{7, 3, 5},
		{5, 7, 3},
		{4, 4, 4},
		{6, 8, 6},    // exact micro-tiles for both kernel geometries
		{39, 41, 40}, // nb±1 around the default tile order
		{41, 39, 41},
		{13, 9, 259}, // k crosses the KC=256 blocking boundary
		{133, 9, 17}, // m crosses the MC=132 blocking boundary
		{9, 513, 5},  // n crosses the NC=512 blocking boundary
	}
	alphas := []float64{0, 1, -0.5}
	betas := []float64{0, 1, 2}

	check := func(t *testing.T, useViews bool) {
		rng := rand.New(rand.NewSource(11))
		for _, d := range shapes {
			m, n, k := d[0], d[1], d[2]
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, tb := range []Transpose{NoTrans, Trans} {
					for _, alpha := range alphas {
						for _, beta := range betas {
							ar, ac := m, k
							if ta == Trans {
								ar, ac = k, m
							}
							br, bc := k, n
							if tb == Trans {
								br, bc = n, k
							}
							var a, b, c0 *mat.Matrix
							if useViews {
								a, b, c0 = viewOf(rng, ar, ac), viewOf(rng, br, bc), viewOf(rng, m, n)
							} else {
								a, b, c0 = randMat(rng, ar, ac), randMat(rng, br, bc), randMat(rng, m, n)
							}
							got := c0.Clone()
							want := c0.Clone()
							Gemm(ta, tb, alpha, a, b, beta, got)
							naiveGemm(ta, tb, alpha, a, b, beta, want)
							if diff := mat.MaxDiff(got, want); diff > 1e-10*float64(k+1) {
								t.Fatalf("Gemm m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g views=%v: maxdiff %g",
									m, n, k, ta, tb, alpha, beta, useViews, diff)
							}
						}
					}
				}
			}
		}
	}

	forEachKernel(t, func(t *testing.T) {
		check(t, false)
		check(t, true)
	})
}

// TestTrsmOddShapesAndViews covers Trsm on odd orders, rectangular B, alpha
// scaling, and strided views for every side/uplo/trans/diag combination.
func TestTrsmOddShapesAndViews(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 7, 13} {
		for _, w := range []int{1, 5} {
			for _, alpha := range []float64{1, -0.5, 2} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Upper, Lower} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := randTri(rng, n, uplo, diag)
								var b *mat.Matrix
								if side == Left {
									b = viewOf(rng, n, w)
								} else {
									b = viewOf(rng, w, n)
								}
								b0 := b.Clone()
								Trsm(side, uplo, trans, diag, alpha, tm, b)
								// op(T)·X (resp. X·op(T)) must equal alpha·B.
								back := applyTri(side, uplo, trans, diag, tm, b)
								for i := range b0.Data {
									b0.Data[i] *= alpha
								}
								if d := mat.MaxDiff(back, b0); d > 1e-8 {
									t.Fatalf("Trsm n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v residual %g",
										n, w, alpha, side, uplo, trans, diag, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmZeroAlloc asserts the steady-state zero-allocation contract of
// the packed path: after warm-up, repeated Gemm calls must not touch the
// heap (pack buffers come from the mat workspace arena).
func TestGemmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(13))
	for _, nb := range []int{40, 128} {
		a, b, c := randMat(rng, nb, nb), randMat(rng, nb, nb), randMat(rng, nb, nb)
		Gemm(NoTrans, NoTrans, -1, a, b, 1, c) // warm the pools
		allocs := testing.AllocsPerRun(10, func() {
			Gemm(NoTrans, NoTrans, -1, a, b, 1, c)
		})
		if allocs != 0 {
			t.Errorf("Gemm nb=%d: %v allocs/op, want 0", nb, allocs)
		}
	}
}

// applyTri wrapping can mask shape errors silently; keep one explicit
// sanity anchor so the table test itself is tested.
func TestGemmPackedAnchor(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := mat.FromSlice(2, 2, []float64{5, 6, 7, 8})
	c := mat.New(2, 2)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("anchor: got %v want %v", c.Data, want)
		}
	}
}

func BenchmarkGemmPacked(b *testing.B) {
	for _, nb := range []int{40, 128, 256} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x, y, c := randMat(rng, nb, nb), randMat(rng, nb, nb), randMat(rng, nb, nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(NoTrans, NoTrans, -1, x, y, 1, c)
			}
			b.StopTimer()
			gf := 2 * float64(nb) * float64(nb) * float64(nb) / 1e9
			b.ReportMetric(gf*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}
