package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// withKernels runs f on the kernel tables k64 and k32, restoring the
// init-time selection afterwards.
func withKernels(k64 kernels[float64], k32 kernels[float32], f func()) {
	h64, h32 := kernels64, kernels32
	kernels64, kernels32 = k64, k32
	defer func() { kernels64, kernels32 = h64, h32 }()
	f()
}

// withPortableKernels runs f on the portable kernel tables of both element
// types — the 4×4 micro-kernel with its narrow companions and the scalar
// level-1 loops. It lets the suite exercise the portable arithmetic on
// hosts where init picked the assembly kernels (the reverse needs no hook:
// the portable kernels are always available).
func withPortableKernels(f func()) {
	withKernels(portableKernels[float64](), portableKernels[float32](), f)
}

// withAVX2Kernels runs f on the AVX2 tables where init picked the AVX-512
// ones, and reports whether it did; elsewhere it does nothing.
func withAVX2Kernels(f func()) bool {
	k64, k32, ok := avx2Tables()
	if ok {
		withKernels(k64, k32, f)
	}
	return ok
}

// gemmNR is the float64 table's micro-tile width, the width the narrow-path
// pins sweep past. forEachKernel keeps it in step with the table under test.
var gemmNR int

// forEachKernel runs check as the subtests "hostKernel" (the init-time
// selection), "avx2Kernel" where init picked the AVX-512 tables, and
// "portableKernel".
func forEachKernel(t *testing.T, check func(t *testing.T)) {
	run := func(t *testing.T) {
		gemmNR = kernels64.nr
		check(t)
	}
	t.Run("hostKernel", run)
	if k64, k32, ok := avx2Tables(); ok {
		t.Run("avx2Kernel", func(t *testing.T) { withKernels(k64, k32, func() { run(t) }) })
	}
	t.Run("portableKernel", func(t *testing.T) { withPortableKernels(func() { run(t) }) })
}

// viewOf embeds a fresh random r×c matrix inside a larger parent so that
// Stride != Cols, returning the interior view.
func viewOf(rng *rand.Rand, r, c int) *mat.Matrix {
	parent := randMat(rng, r+3, c+5)
	return parent.View(1, 2, r, c)
}

// TestGemmPackedTable and TestGemm32Table cross-check the packed Gemm at
// each precision against the naive product of the widened operands over all
// four transpose variants, odd and rectangular shapes (including micro-tile
// fringes and cache-block boundaries), the alpha/beta special cases, and
// strided submatrix views, under both the host-selected kernel and the
// forced portable kernel.
func TestGemmPackedTable(t *testing.T) { forEachKernel(t, testGemmTable[float64]) }

func TestGemm32Table(t *testing.T) { forEachKernel(t, testGemmTable[float32]) }

func testGemmTable[T mat.Float](t *testing.T) {
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1},
		{3, 5, 7},
		{7, 3, 5},
		{5, 7, 3},
		{4, 4, 4},
		{6, 8, 6},    // exact micro-tiles for both float64 geometries
		{6, 16, 6},   // exact micro-tile for the AVX2 float32 geometry
		{39, 41, 40}, // nb±1 around the default tile order
		{41, 39, 41},
		{13, 9, 259}, // k crosses the KC=256 blocking boundary
		{133, 9, 17}, // m crosses the MC=132 blocking boundary
		{9, 513, 5},  // n crosses the NC=512 blocking boundary
	}
	alphas := []T{0, 1, -0.5}
	betas := []T{0, 1, 2}

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
							var a, b, got *mat.Dense[T]
							if useViews {
								a, b, got = viewOfT[T](rng, ar, ac), viewOfT[T](rng, br, bc), viewOfT[T](rng, m, n)
							} else {
								a, b, got = randT[T](rng, ar, ac), randT[T](rng, br, bc), randT[T](rng, m, n)
							}
							want := widen(got)
							naiveGemm(ta, tb, float64(alpha), widen(a), widen(b), float64(beta), want)
							Gemm(ta, tb, alpha, a, b, beta, got)
							tol := 256 * unitRoundoff[T]() * float64(k+2)
							if diff := mat.MaxDiff(widen(got), want); diff > tol {
								t.Fatalf("Gemm m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g views=%v: maxdiff %g > %g",
									m, n, k, ta, tb, alpha, beta, useViews, diff, tol)
							}
						}
					}
				}
			}
		}
	}
	check(t, false)
	check(t, true)
}

// TestPackAMatchesLayout pins packA, whose full micro-panels go through
// the table's fixed-height packPanel body, to the layout the micro-kernel
// reads: element (ir+i, p) of alpha·op(A)'s block at buf[ir*kc + p*mr + i],
// zero below a fringe panel's rows — exactly, at each precision, for both
// transposes, A as a strided view, and block heights from one element to
// past two micro-panels.
func TestPackAMatchesLayout(t *testing.T) {
	forEachType(t, testPackAMatchesLayout[float64], testPackAMatchesLayout[float32])
}

func testPackAMatchesLayout[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kt := table[T]()
	mr := kt.mr
	for _, transA := range []Transpose{NoTrans, Trans} {
		for _, mc := range []int{1, mr - 1, mr, mr + 1, 2*mr + 1} {
			for _, kc := range []int{1, 5, 17} {
				const i0, p0 = 2, 3
				ar, ac := i0+mc+1, p0+kc+2
				if transA == Trans {
					ar, ac = ac, ar
				}
				a := viewOfT[T](rng, ar, ac)
				var alpha T = -0.75
				buf := make([]T, roundUp(mc, mr)*kc)
				packA(kt, buf, a, transA, alpha, i0, p0, mc, kc)
				for ir := 0; ir < mc; ir += mr {
					for p := 0; p < kc; p++ {
						for i := 0; i < mr; i++ {
							var want T
							if r := ir + i; r < mc {
								if transA == NoTrans {
									want = alpha * a.At(i0+r, p0+p)
								} else {
									want = alpha * a.At(p0+p, i0+r)
								}
							}
							if got := buf[ir*kc+p*mr+i]; got != want {
								t.Fatalf("transA=%v mc=%d kc=%d: panel %d (%d, %d) = %v, want %v", transA, mc, kc, ir/mr, i, p, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrsmOddShapesAndViews covers Trsm on odd orders, rectangular B, alpha
// scaling, and strided views for every side/uplo/trans/diag combination.
func TestTrsmOddShapesAndViews(t *testing.T) {
	forEachType(t, testTrsmOddShapesAndViews[float64], testTrsmOddShapesAndViews[float32])
}

func testTrsmOddShapesAndViews[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 7, 13} {
		for _, w := range []int{1, 5} {
			for _, alpha := range []T{1, -0.5, 2} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Upper, Lower} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := roundTo[T](randTri(rng, n, uplo, diag))
								var b *mat.Dense[T]
								if side == Left {
									b = viewOfT[T](rng, n, w)
								} else {
									b = viewOfT[T](rng, w, n)
								}
								b0 := widen(b)
								Trsm(side, uplo, trans, diag, alpha, tm, b)
								// op(T)·X (resp. X·op(T)) must equal alpha·B.
								x := widen(b)
								back := applyTri(side, uplo, trans, diag, widen(tm), x)
								for i := range b0.Data {
									b0.Data[i] *= float64(alpha)
								}
								tol := 1024 * unitRoundoff[T]() * float64(n) * max(1, x.NormMax())
								if d := mat.MaxDiff(back, b0); d > tol {
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

// TestGemmZeroAlloc and TestGemm32ZeroAlloc assert the steady-state
// zero-allocation contract of the packed path at each precision: after
// warm-up, repeated Gemm calls must not touch the heap (pack buffers come
// from the mat workspace arena).
func TestGemmZeroAlloc(t *testing.T) { forEachKernel(t, testGemmZeroAlloc[float64]) }

func TestGemm32ZeroAlloc(t *testing.T) { forEachKernel(t, testGemmZeroAlloc[float32]) }

func testGemmZeroAlloc[T mat.Float](t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(13))
	for _, nb := range []int{40, 96, 128} {
		a, b, c := randT[T](rng, nb, nb), randT[T](rng, nb, nb), randT[T](rng, nb, nb)
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
