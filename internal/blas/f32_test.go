package blas

import (
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// withKernel32 runs f under a specific float32 micro-kernel geometry,
// restoring the init-time selection afterwards.
func withKernel32(mr, nr int, kernel func(int, []float32, []float32, []float32, int), f func()) {
	mr0, nr0, k0 := gemmMR32, gemmNR32, gemmKernel32
	gemmMR32, gemmNR32, gemmKernel32 = mr, nr, kernel
	defer func() { gemmMR32, gemmNR32, gemmKernel32 = mr0, nr0, k0 }()
	f()
}

// forEachKernel32 runs check as the subtests "hostKernel" (the init-time
// float32 selection) and "portableKernel" (the 4×4 Go kernel).
func forEachKernel32(t *testing.T, check func(t *testing.T)) {
	t.Run("hostKernel", check)
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() { check(t) })
	})
}

// roundTo32 returns a Matrix32 holding float32(m) — the image a tile
// receives when it enters a precision epoch.
func roundTo32(m *mat.Matrix) *mat.Matrix32 {
	r := mat.NewMatrix32(m.Rows, m.Cols)
	r.RoundFrom(m)
	return r
}

// widen returns the float64 values of m.
func widen(m *mat.Matrix32) *mat.Matrix {
	w := mat.New(m.Rows, m.Cols)
	m.WidenInto(w)
	return w
}

// view32Of embeds a fresh random r×c float32 matrix inside a larger parent
// so that Stride != Cols, returning the interior view.
func view32Of(rng *rand.Rand, r, c int) *mat.Matrix32 {
	return roundTo32(randMat(rng, r+3, c+5)).View(1, 2, r, c)
}

// TestGemm32Table cross-checks the packed float32 Gemm32R against the
// float64 naive reference on the same (widened) operands over all transpose
// variants, fringe shapes, cache-block boundaries, alpha/beta special
// cases, and strided views, under both the host-selected kernel and the
// forced portable kernel. Accuracy is gated at float32 resolution.
func TestGemm32Table(t *testing.T) {
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1},
		{3, 5, 7},
		{7, 3, 5},
		{5, 7, 3},
		{6, 16, 6}, // exact micro-tile for the AVX2 f32 geometry
		{39, 41, 40},
		{13, 9, 259}, // k crosses the KC=256 blocking boundary
		{133, 9, 17}, // m crosses the MC=132 blocking boundary
		{9, 513, 5},  // n crosses the NC=512 blocking boundary
	}
	alphas := []float64{0, 1, -0.5}
	betas := []float64{0, 1, 2}

	check := func(t *testing.T, useViews bool) {
		rng := rand.New(rand.NewSource(31))
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
							var a, b, got *mat.Matrix32
							if useViews {
								a, b, got = view32Of(rng, ar, ac), view32Of(rng, br, bc), view32Of(rng, m, n)
							} else {
								a, b, got = roundTo32(randMat(rng, ar, ac)), roundTo32(randMat(rng, br, bc)), roundTo32(randMat(rng, m, n))
							}
							want := widen(got)
							naiveGemm(ta, tb, alpha, widen(a), widen(b), beta, want)
							Gemm32R(ta, tb, alpha, a, b, beta, got)
							// float32 unit roundoff is ~6e-8; allow a k-term
							// accumulation with NormFloat64-scale data.
							tol := 2e-5 * float64(k+2)
							if diff := mat.MaxDiff(widen(got), want); diff > tol {
								t.Fatalf("Gemm32R m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g views=%v: maxdiff %g > %g",
									m, n, k, ta, tb, alpha, beta, useViews, diff, tol)
							}
						}
					}
				}
			}
		}
	}
	forEachKernel32(t, func(t *testing.T) {
		check(t, false)
		check(t, true)
	})
}

// TestTrsm32AllVariants solves with the float32 Trsm32R and verifies
// op(T)·X ≈ alpha·B at float32 resolution for every variant, on orders both
// below and above the recursion leaf and the triBlock boundary.
func TestTrsm32AllVariants(t *testing.T) {
	forEachKernel32(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, n := range []int{1, 3, 13, 40} {
			for _, w := range []int{1, 5} {
				for _, alpha := range []float64{1, -0.5} {
					for _, side := range []Side{Left, Right} {
						for _, uplo := range []Uplo{Upper, Lower} {
							for _, trans := range []Transpose{NoTrans, Trans} {
								for _, diag := range []Diag{NonUnit, Unit} {
									tm := roundTo32(randTri(rng, n, uplo, diag))
									var b *mat.Matrix32
									if side == Left {
										b = view32Of(rng, n, w)
									} else {
										b = view32Of(rng, w, n)
									}
									b0 := widen(b)
									Trsm32R(side, uplo, trans, diag, alpha, tm, b)
									x := widen(b)
									back := applyTri(side, uplo, trans, diag, widen(tm), x)
									for i := range b0.Data {
										b0.Data[i] *= alpha
									}
									// Substitution at f32 on an order-n
									// triangle: scale the gate with n and
									// with the solution norm (unit-triangular
									// solves amplify x).
									tol := 1e-4 * float64(n) * max(1, x.NormMax())
									if d := mat.MaxDiff(back, b0); d > tol {
										t.Fatalf("Trsm32R n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v residual %g > %g",
											n, w, alpha, side, uplo, trans, diag, d, tol)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestTrmm32AllVariants cross-checks the float32 Trmm32R against the
// float64 Trmm on the same (widened) operands at float32 resolution for
// every variant.
func TestTrmm32AllVariants(t *testing.T) {
	forEachKernel32(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for _, n := range []int{1, 3, 13, 40} {
			for _, w := range []int{1, 5} {
				for _, alpha := range []float64{1, -0.5} {
					for _, side := range []Side{Left, Right} {
						for _, uplo := range []Uplo{Upper, Lower} {
							for _, trans := range []Transpose{NoTrans, Trans} {
								for _, diag := range []Diag{NonUnit, Unit} {
									tm := roundTo32(randTri(rng, n, uplo, diag))
									var got *mat.Matrix32
									if side == Left {
										got = view32Of(rng, n, w)
									} else {
										got = view32Of(rng, w, n)
									}
									want := widen(got)
									Trmm32R(side, uplo, trans, diag, alpha, tm, got)
									Trmm(side, uplo, trans, diag, alpha, widen(tm), want)
									tol := 1e-4 * float64(n)
									if d := mat.MaxDiff(widen(got), want); d > tol {
										t.Fatalf("Trmm32R n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
											n, w, alpha, side, uplo, trans, diag, d, tol)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestGemm32ZeroAlloc asserts the steady-state zero-allocation contract of
// the float32 packed path (pack panels and the accumulator come from the
// float32 workspace arena).
func TestGemm32ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	forEachKernel32(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		a := roundTo32(randMat(rng, 96, 96))
		b := roundTo32(randMat(rng, 96, 96))
		c := roundTo32(randMat(rng, 96, 96))
		run := func() { Gemm32R(NoTrans, NoTrans, -1, a, b, 1, c) }
		run() // warm the pools
		allocs := testing.AllocsPerRun(20, run)
		if allocs > 2 {
			t.Fatalf("Gemm32R steady state allocates %.1f objects/op, want <= 2", allocs)
		}
	})
}
