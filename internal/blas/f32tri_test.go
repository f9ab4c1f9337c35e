package blas

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// Pinning tests for the packed f32 triangular paths: Trmm32R materializes
// the triangle densely and runs one in-place Gemm32R; Trsm32R recurses with
// packed GEMM couplings. Both must agree with the scalar basic kernels at
// float32 resolution (accumulation order differs, so agreement is
// tolerance-gated).

// TestTrmm32PackedMatchesBasic drives every Trmm32R variant at orders that
// take the packed dense-triangle path and compares against trmmBasic32R on
// the same data.
func TestTrmm32PackedMatchesBasic(t *testing.T) {
	check := func(t *testing.T, orders []int) {
		rng := rand.New(rand.NewSource(211))
		for _, n := range orders {
			for _, w := range []int{1, 7, 33} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Lower, Upper} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := roundTo32(randTri(rng, n, uplo, diag))
								br, bc := n, w
								if side == Right {
									br, bc = w, n
								}
								b := randMat(rng, br, bc)
								want := roundTo32(b)
								trmmBasic32R(side, uplo, trans, diag, -0.5, tm, want)
								got := roundTo32(b)
								Trmm32R(side, uplo, trans, diag, -0.5, tm, got)
								tol := 1e-4 * float64(n)
								if d := mat.MaxDiff(widen(got), widen(want)); d > tol {
									t.Fatalf("Trmm32R packed n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
										n, w, side, uplo, trans, diag, d, tol)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Run("hostKernel", func(t *testing.T) { check(t, []int{trmmPackMin, 40, 96}) })
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() { check(t, []int{trmmPackMin, 40}) })
	})
}

// TestTrmm32PackedIgnoresOffTriangle poisons the unused half of T (and, for
// Unit, the diagonal) with NaN and requires the packed path to reproduce the
// basic kernel exactly as if the poison were absent — the materialization
// must never read outside the stored triangle. This is the contract the QR
// update kernels rely on: the V factor's super-diagonal holds R values.
func TestTrmm32PackedIgnoresOffTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	n, w := 40, 7
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					tm := roundTo32(randTri(rng, n, uplo, diag))
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							off := (uplo == Lower && j > i) || (uplo == Upper && j < i)
							if off || (diag == Unit && i == j) {
								tm.Set(i, j, float32(math.NaN()))
							}
						}
					}
					br, bc := n, w
					if side == Right {
						br, bc = w, n
					}
					b := randMat(rng, br, bc)
					want := roundTo32(b)
					trmmBasic32R(side, uplo, trans, diag, 1, tm, want)
					got := roundTo32(b)
					Trmm32R(side, uplo, trans, diag, 1, tm, got)
					tol := 1e-4 * float64(n)
					if d := mat.MaxDiff(widen(got), widen(want)); d > tol || math.IsNaN(got.Norm1()) {
						t.Fatalf("Trmm32R poisoned n=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g (NaN leak?)",
							n, side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

// TestTrsm32RecursiveMatchesBasic drives every Trsm32R variant at orders
// above the recursion leaf and compares against a pure trsmBasic32R solve.
func TestTrsm32RecursiveMatchesBasic(t *testing.T) {
	check := func(t *testing.T, orders []int) {
		rng := rand.New(rand.NewSource(227))
		for _, n := range orders {
			for _, w := range []int{1, 7} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Lower, Upper} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := roundTo32(randTri(rng, n, uplo, diag))
								br, bc := n, w
								if side == Right {
									br, bc = w, n
								}
								b := randMat(rng, br, bc)
								want := roundTo32(b)
								trsmBasic32R(side, uplo, trans, diag, tm, want)
								got := roundTo32(b)
								Trsm32R(side, uplo, trans, diag, 1, tm, got)
								tol := 1e-4 * float64(n) * max(1, want.NormMax())
								if d := mat.MaxDiff(widen(got), widen(want)); d > tol {
									t.Fatalf("Trsm32R recursive n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
										n, w, side, uplo, trans, diag, d, tol)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Run("hostKernel", func(t *testing.T) { check(t, []int{trsmRecLeaf + 1, 40, 96}) })
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() { check(t, []int{trsmRecLeaf + 1, 40}) })
	})
}
