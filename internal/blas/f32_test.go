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

// f32Representable reports whether every element of m is an exactly
// representable float32 widened to float64 — the storage invariant of the
// mixed-precision routines.
func f32Representable(m *mat.Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if float64(float32(v)) != v {
				return false
			}
		}
	}
	return true
}

// TestGemm32Table cross-checks the packed float32 Gemm against the float64
// naive reference over all transpose variants, fringe shapes, cache-block
// boundaries, alpha/beta special cases, and strided views, under both the
// host-selected kernel and the forced portable kernel. Accuracy is gated at
// float32 resolution, and every stored result must be f32-representable.
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
							var a, b, c0 *mat.Matrix
							if useViews {
								a, b, c0 = viewOf(rng, ar, ac), viewOf(rng, br, bc), viewOf(rng, m, n)
							} else {
								a, b, c0 = randMat(rng, ar, ac), randMat(rng, br, bc), randMat(rng, m, n)
							}
							got := c0.Clone()
							want := c0.Clone()
							Gemm32(ta, tb, alpha, a, b, beta, got)
							naiveGemm(ta, tb, alpha, a, b, beta, want)
							// float32 unit roundoff is ~6e-8; allow a k-term
							// accumulation with NormFloat64-scale data.
							tol := 2e-5 * float64(k+2)
							if diff := mat.MaxDiff(got, want); diff > tol {
								t.Fatalf("Gemm32 m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g views=%v: maxdiff %g > %g",
									m, n, k, ta, tb, alpha, beta, useViews, diff, tol)
							}
							// alpha=0, beta=1 is a no-op: C legitimately
							// keeps its f64 input values.
							if !(alpha == 0 && beta == 1) && !f32Representable(got) {
								t.Fatalf("Gemm32 m=%d n=%d k=%d: result not f32-representable", m, n, k)
							}
						}
					}
				}
			}
		}
	}

	t.Run("hostKernel", func(t *testing.T) {
		check(t, false)
		check(t, true)
	})
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() {
			check(t, false)
			check(t, true)
		})
	})
}

// TestTrsm32AllVariants solves with the float32 blocked Trsm and verifies
// op(T)·X ≈ alpha·B at float32 resolution for every variant, on orders both
// below and above the triBlock boundary.
func TestTrsm32AllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 3, 13, 40} {
		for _, w := range []int{1, 5} {
			for _, alpha := range []float64{1, -0.5} {
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
								Trsm32(side, uplo, trans, diag, alpha, tm, b)
								back := applyTri(side, uplo, trans, diag, tm, b)
								for i := range b0.Data {
									b0.Data[i] *= alpha
								}
								// Substitution at f32 on an order-n triangle:
								// scale the gate with n and with the solution
								// norm (unit-triangular solves amplify x).
								xnorm := 1.0
								for i := 0; i < b.Rows; i++ {
									for _, v := range b.Row(i) {
										if v > xnorm {
											xnorm = v
										} else if -v > xnorm {
											xnorm = -v
										}
									}
								}
								tol := 1e-4 * float64(n) * xnorm
								if d := mat.MaxDiff(back, b0); d > tol {
									t.Fatalf("Trsm32 n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v residual %g > %g",
										n, w, alpha, side, uplo, trans, diag, d, tol)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTrmm32AllVariants cross-checks the float32 blocked Trmm against the
// float64 Trmm at float32 resolution for every variant.
func TestTrmm32AllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 3, 13, 40} {
		for _, w := range []int{1, 5} {
			for _, alpha := range []float64{1, -0.5} {
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
								got := b.Clone()
								want := b.Clone()
								Trmm32(side, uplo, trans, diag, alpha, tm, got)
								Trmm(side, uplo, trans, diag, alpha, tm, want)
								tol := 1e-4 * float64(n)
								if d := mat.MaxDiff(got, want); d > tol {
									t.Fatalf("Trmm32 n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
										n, w, alpha, side, uplo, trans, diag, d, tol)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGemm32ZeroAlloc asserts the steady-state zero-allocation contract of
// the float32 packed path (pack panels and the accumulator come from the
// float32 workspace arena).
func TestGemm32ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(34))
	a := randMat(rng, 96, 96)
	b := randMat(rng, 96, 96)
	c := randMat(rng, 96, 96)
	run := func() { Gemm32(NoTrans, NoTrans, -1, a, b, 1, c) }
	run() // warm the pools
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 2 {
		t.Fatalf("Gemm32 steady state allocates %.1f objects/op, want <= 2", allocs)
	}
}
