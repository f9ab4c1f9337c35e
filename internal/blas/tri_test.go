package blas

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// Pinning tests for the triangular kernels: past triBlock, Trsm and Trmm's
// Right side solve triBlock-order diagonal blocks with the basic kernels and
// run the couplings between them through the packed GEMM, and Trmm's Left
// side is a packed triangular multiply at every order. Each must agree with
// one basic-kernel pass over the whole triangle (accumulation order differs,
// so agreement is tolerance-gated), and none may read outside the stored
// triangle.

// TestTrmmBlockedMatchesBasic and TestTrmm32PackedMatchesBasic drive every
// Trmm variant at orders past triBlock and across one and two KC blocks, on
// both the packed and the narrow Left paths, and compare against trmmBasic
// on the same data, at each precision.
func TestTrmmBlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrmmBlockedMatchesBasic[float64])
}

func TestTrmm32PackedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrmmBlockedMatchesBasic[float32])
}

func testTrmmBlockedMatchesBasic[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, n := range []int{triBlock + 1, 40, 96, gemmKC + 3, 2*gemmKC + 5} {
		for _, w := range []int{1, 7, 33} {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Lower, Upper} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							tm := roundTo[T](randTri(rng, n, uplo, diag))
							br, bc := n, w
							if side == Right {
								br, bc = w, n
							}
							b := randMat(rng, br, bc)
							want := roundTo[T](b)
							trmmBasic(side, uplo, trans, diag, -0.5, tm, want)
							got := roundTo[T](b)
							Trmm(side, uplo, trans, diag, -0.5, tm, got)
							tol := 1024 * unitRoundoff[T]() * float64(n)
							if d := mat.MaxDiff(got, want); d > tol {
								t.Fatalf("Trmm blocked n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
									n, w, side, uplo, trans, diag, d, tol)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrsmBlockedMatchesBasic and TestTrsm32BlockedMatchesBasic drive every
// Trsm variant at orders past triBlock and compare against a single
// trsmBasic solve, at each precision.
func TestTrsmBlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrsmBlockedMatchesBasic[float64])
}

func TestTrsm32BlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrsmBlockedMatchesBasic[float32])
}

func testTrsmBlockedMatchesBasic[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for _, n := range []int{triBlock + 1, 40, 96} {
		for _, w := range []int{1, 7} {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Lower, Upper} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							tm := roundTo[T](randTri(rng, n, uplo, diag))
							br, bc := n, w
							if side == Right {
								br, bc = w, n
							}
							b := randMat(rng, br, bc)
							want := roundTo[T](b)
							trsmBasic(side, uplo, trans, diag, tm, want)
							got := roundTo[T](b)
							Trsm(side, uplo, trans, diag, 1, tm, got)
							tol := 1024 * unitRoundoff[T]() * float64(n) * max(1, want.NormMax())
							if d := mat.MaxDiff(got, want); d > tol {
								t.Fatalf("Trsm blocked n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
									n, w, side, uplo, trans, diag, d, tol)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrmmIgnoresOffTriangle and TestTrmm32PackedIgnoresOffTriangle poison
// the unstored half of T (and, for Unit, the diagonal) with NaN and require
// Trmm and Trsm to reproduce their results on the clean triangle bit for
// bit — neither may read outside the stored triangle. This is the contract
// the QR update kernels rely on: the V factor's super-diagonal holds R
// values. The orders across one and two KC blocks check Trmm alone.
func TestTrmmIgnoresOffTriangle(t *testing.T) {
	forEachKernel(t, testTriIgnoresOffTriangle[float64])
}

func TestTrmm32PackedIgnoresOffTriangle(t *testing.T) {
	forEachKernel(t, testTriIgnoresOffTriangle[float32])
}

func testTriIgnoresOffTriangle[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for _, n := range []int{7, 40, gemmKC + 3, 2*gemmKC + 5} {
		for _, w := range []int{1, 7} {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Lower, Upper} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							clean := roundTo[T](randTri(rng, n, uplo, diag))
							poisoned := clean.Clone()
							for i := 0; i < n; i++ {
								for j := 0; j < n; j++ {
									off := (uplo == Lower && j > i) || (uplo == Upper && j < i)
									if off {
										clean.Set(i, j, 0)
									}
									if off || (diag == Unit && i == j) {
										poisoned.Set(i, j, T(math.NaN()))
									}
								}
							}
							br, bc := n, w
							if side == Right {
								br, bc = w, n
							}
							b := randMat(rng, br, bc)
							for name, op := range map[string]func(tm, x *mat.Dense[T]){
								"Trmm": func(tm, x *mat.Dense[T]) { Trmm(side, uplo, trans, diag, 1, tm, x) },
								"Trsm": func(tm, x *mat.Dense[T]) { Trsm(side, uplo, trans, diag, 1, tm, x) },
							} {
								if name == "Trsm" && n > gemmKC {
									// A random unit triangle this large has an
									// inverse past float32's range.
									continue
								}
								want, got := roundTo[T](b), roundTo[T](b)
								op(clean, want)
								op(poisoned, got)
								if !mat.Equal(got, want) || math.IsNaN(got.Norm1()) {
									t.Fatalf("%s poisoned n=%d w=%d side=%v uplo=%v trans=%v diag=%v: result changed (NaN leak?)",
										name, n, w, side, uplo, trans, diag)
								}
							}
						}
					}
				}
			}
		}
	}
}
