package blas

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// sameBits reports whether got and want hold the same float64 bit patterns.
func sameBits(got, want *mat.Matrix) (i, j int, ok bool) {
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestGemmNarrowMatchesWide pins the narrow path's contract: Gemm with one
// output column (the unpacked path) equals column j of Gemm with w columns
// bit for bit, for every w from 1 (narrow up to NR/2) to 2·NR+1 (packed,
// with a micro-tile fringe), both transposes of A, A as a strided view, B
// columns both strided and contiguous, and k crossing the KC blocking
// boundary — under the host kernel and the portable one. An Inf in A meets
// a zero of B in the last column: the micro-kernel does not skip zero
// multipliers, so that element turns NaN on both paths.
func TestGemmNarrowMatchesWide(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		maxW := 2*gemmNR + 1
		for _, mk := range [][2]int{{1, 1}, {5, 3}, {13, 64}, {64, 64}, {7, gemmKC + 3}, {9, 2*gemmKC + 1}} {
			m, k := mk[0], mk[1]
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, ab := range [][2]float64{{1, 1}, {-1, 1}, {-0.7, 0}, {0.3, 2}} {
					alpha, beta := ab[0], ab[1]
					var a *mat.Matrix
					if ta == NoTrans {
						a = viewOf(rng, m, k)
					} else {
						a = viewOf(rng, k, m)
					}
					b := randMat(rng, k, maxW)
					a.Set(0, 0, math.Inf(1))
					b.Set(0, maxW-1, 0)
					c0 := randMat(rng, m, maxW)
					for w := 1; w <= maxW; w++ {
						wide := c0.View(0, 0, m, w).Clone()
						Gemm(ta, NoTrans, alpha, a, b.View(0, 0, k, w), beta, wide)
						for j := 0; j < w; j++ {
							strided := c0.View(0, j, m, 1).Clone()
							Gemm(ta, NoTrans, alpha, a, b.View(0, j, k, 1), beta, strided)
							tight := c0.View(0, j, m, 1).Clone()
							Gemm(ta, NoTrans, alpha, a, b.View(0, j, k, 1).Clone(), beta, tight)
							for name, got := range map[string]*mat.Matrix{"strided": strided, "contiguous": tight} {
								if i, _, ok := sameBits(got, wide.View(0, j, m, 1)); !ok {
									t.Fatalf("m=%d k=%d ta=%v alpha=%g beta=%g w=%d col %d (%s B): row %d %v, wide %v",
										m, k, ta, alpha, beta, w, j, name, i, got.At(i, 0), wide.At(i, j))
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestGemmNarrowAgainstReference checks the narrow path's values (n ≤ NR/2)
// against the naive product, with alpha and beta scaling, both transposes
// of A, and a column of C embedded in a wider parent.
func TestGemmNarrowAgainstReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, mnk := range [][3]int{{5, 1, 3}, {3, 1, 5}, {17, 2, 40}, {40, gemmNR / 2, 17}} {
			m, n, k := mnk[0], mnk[1], mnk[2]
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, ab := range [][2]float64{{1, 0}, {2, 0}, {1, 3}, {-0.5, 1}} {
					var a *mat.Matrix
					if ta == NoTrans {
						a = randMat(rng, m, k)
					} else {
						a = randMat(rng, k, m)
					}
					b := randMat(rng, k, n)
					got := viewOf(rng, m, n)
					want := got.Clone()
					Gemm(ta, NoTrans, ab[0], a, b, ab[1], got)
					naiveGemm(ta, NoTrans, ab[0], a, b, ab[1], want)
					if d := mat.MaxDiff(got, want); d > 1e-12*float64(k) {
						t.Fatalf("m=%d n=%d k=%d ta=%v alpha=%g beta=%g: maxdiff %g", m, n, k, ta, ab[0], ab[1], d)
					}
				}
			}
		}
	})
}

// TestGemmNarrowZeroAlloc: the narrow path allocates nothing in steady
// state either (its Trans scratch comes from the workspace arena).
func TestGemmNarrowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(23))
	a, b, c := randMat(rng, 64, 64), randMat(rng, 64, 1), randMat(rng, 64, 1)
	for _, ta := range []Transpose{NoTrans, Trans} {
		Gemm(ta, NoTrans, -1, a, b, 1, c)
		if allocs := testing.AllocsPerRun(10, func() { Gemm(ta, NoTrans, -1, a, b, 1, c) }); allocs != 0 {
			t.Errorf("narrow Gemm ta=%v: %v allocs/op, want 0", ta, allocs)
		}
	}
}

// TestTrsmColumnMatchesWide is the triangular solve's version of the
// narrow contract: a Left solve of one column equals column j of the same
// solve over w columns bit for bit, for every uplo/trans/diag, orders on
// both sides of the blocking threshold, alpha scaling, and a right-hand side
// with an Inf behind a zero multiplier (the skip Axpy makes must be made by
// the column path too, or 0·Inf turns the solution into NaN).
func TestTrsmColumnMatchesWide(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		maxW := 2*gemmNR + 1
		for _, n := range []int{1, 7, triBlock, triBlock + 1, 2*triBlock + 5} {
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					for _, diag := range []Diag{NonUnit, Unit} {
						for _, alpha := range []float64{1, -0.5} {
							tm := randTri(rng, n, uplo, diag)
							b := randMat(rng, n, maxW)
							// The first unknown solved (x_0 for a lower op(T),
							// x_{n-1} for an upper one) is Inf in the last column,
							// and every multiplier it feeds is zero.
							src := 0
							if (uplo == Lower) == (trans == Trans) {
								src = n - 1
							}
							for i := 0; i < n; i++ {
								if i == src {
									continue
								}
								if trans == NoTrans {
									tm.Set(i, src, 0)
								} else {
									tm.Set(src, i, 0)
								}
							}
							b.Set(src, maxW-1, math.Inf(1))
							for w := 1; w <= maxW; w++ {
								wide := b.View(0, 0, n, w).Clone()
								Trsm(Left, uplo, trans, diag, alpha, tm, wide)
								for j := 0; j < w; j++ {
									col := b.View(0, j, n, 1).Clone()
									Trsm(Left, uplo, trans, diag, alpha, tm, col)
									if i, _, ok := sameBits(col, wide.View(0, j, n, 1)); !ok {
										t.Fatalf("n=%d uplo=%v trans=%v diag=%v alpha=%g w=%d col %d: row %d %v, wide %v",
											n, uplo, trans, diag, alpha, w, j, i, col.At(i, 0), wide.At(i, j))
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

// TestTrsmColumnSolves checks a single-column Left solve's residual for
// every uplo/trans/diag, on a column view of a wider parent, with the
// Unit-diagonal storage holding junk.
func TestTrsmColumnSolves(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		for _, n := range []int{8, 45} {
			for _, uplo := range []Uplo{Upper, Lower} {
				for _, trans := range []Transpose{NoTrans, Trans} {
					for _, diag := range []Diag{NonUnit, Unit} {
						tm := randTri(rng, n, uplo, diag)
						x := viewOf(rng, n, 1)
						x0 := x.Clone()
						Trsm(Left, uplo, trans, diag, 1, tm, x)
						back := applyTri(Left, uplo, trans, diag, tm, x)
						if d := mat.MaxDiff(back, x0); d > 1e-9 {
							t.Fatalf("n=%d uplo=%v trans=%v diag=%v: residual %g", n, uplo, trans, diag, d)
						}
					}
				}
			}
		}
	})
}
