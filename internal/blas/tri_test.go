package blas

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// Pinning tests for the triangular kernels: Trsm is a packed triangular
// solve and Trmm a packed triangular multiply at every order, on both
// sides (the Right side runs the Left one on a transposed copy of B). Each
// must agree with one basic-kernel pass over the whole triangle
// (accumulation order differs, so agreement is tolerance-gated), and none
// may read outside the stored triangle.

// TestTrmmBlockedMatchesBasic and TestTrmm32PackedMatchesBasic drive every
// Trmm variant at orders from 1 through an MR fringe, order 32 (the
// Right-side multiply larftMerge runs at ib = 32), and across one and two
// KC blocks, on both the packed and the narrow paths — B one and two
// columns wide on the Left, one and two rows tall on the Right — and
// compare against trmmBasic on the same data, at each precision.
func TestTrmmBlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrmmBlockedMatchesBasic[float64])
}

func TestTrmm32PackedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrmmBlockedMatchesBasic[float32])
}

func testTrmmBlockedMatchesBasic[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, n := range []int{1, 5, 7, 13, 32, 33, 40, 96, gemmKC + 3, 2*gemmKC + 5} {
		for _, w := range []int{1, 2, 7, 33} {
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
// Trsm variant with alpha = −0.5 at the orders of the Trmm test — MR
// fringes, past order 32 and across a KC block — on one column (the column
// path), a micro-tile fringe and several micro-panels, and compare against
// a single trsmBasic solve, at each precision.
func TestTrsmBlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrsmBlockedMatchesBasic[float64])
}

func TestTrsm32BlockedMatchesBasic(t *testing.T) {
	forEachKernel(t, testTrsmBlockedMatchesBasic[float32])
}

func testTrsmBlockedMatchesBasic[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	const alpha = -0.5
	for _, n := range []int{5, 7, 13, 33, 96, gemmKC + 3} {
		for _, w := range []int{1, 7, 33} {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Lower, Upper} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							tm := roundTo[T](solvableTri(rng, n, uplo, diag))
							br, bc := n, w
							if side == Right {
								br, bc = w, n
							}
							b := randMat(rng, br, bc)
							want := roundTo[T](b)
							for i := range want.Data {
								want.Data[i] *= alpha
							}
							trsmBasic(side, uplo, trans, diag, tm, want)
							got := roundTo[T](b)
							Trsm(side, uplo, trans, diag, alpha, tm, got)
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

// solvableTri is randTri with its strict triangle scaled by 1/√n: past a
// hundred or so, randTri's inverse grows so fast that two correct solves in
// different summation orders need not agree to any digit.
func solvableTri(rng *rand.Rand, n int, uplo Uplo, diag Diag) *mat.Matrix {
	t := randTri(rng, n, uplo, diag)
	s := 1 / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t.Set(i, j, s*t.At(i, j))
			}
		}
	}
	return t
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

// trsmBasic is the tests' reference for Trsm: unblocked forward/back
// substitution with row Axpys, alpha already applied by the caller.
func trsmBasic[T mat.Float](side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Dense[T]) {
	n := t.Rows
	// Reduce the transposed cases to the non-transposed triangle on the
	// opposite side of the diagonal; element access goes through get().
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) T {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}

	if side == Left {
		// Row-oriented forward/back substitution over the rows of B: each
		// step updates a whole row with unit stride.
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		}
		return
	}

	// Right side: X·op(T) = B, solved one row of B at a time. For the
	// untransposed cases the substitution is expressed with T's rows so the
	// inner loops run over contiguous memory.
	if trans == NoTrans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for p := n - 1; p >= 0; p-- {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[p+1:n], row[p+1:n])
					}
				}
			}
		}
		return
	}
	// Transposed right side: op(T)[p, j] = t[j, p], so each x_j is a dot
	// product against the contiguous row j of t.
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		if lower {
			// op(T) lower ⇒ t upper: x_j from last to first.
			for j := n - 1; j >= 0; j-- {
				s := row[j] - Dot(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		} else {
			for j := 0; j < n; j++ {
				s := row[j] - Dot(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		}
	}
}

// trmmBasic is the tests' reference for Trmm: the unblocked triangular
// multiply, with row Axpys on the Left and dot products or row Axpys on
// the Right.
func trmmBasic[T mat.Float](side Side, uplo Uplo, trans Transpose, diag Diag, alpha T, t, b *mat.Dense[T]) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) T {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	if side == Left {
		if !lower {
			// Row i of result depends on rows i..n−1: compute top-down.
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		} else {
			// Row i depends on rows 0..i: compute bottom-up.
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		}
		return
	}
	// Right side: operate on each row independently.
	if trans == Trans {
		// op(T)[p, j] = t[j, p]: each result entry is a dot product against
		// the contiguous row j of t. The in-place order follows the
		// dependency direction (ascending reads x[j:], descending x[:j]).
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot(row[:j], t.Row(j)[:j])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			}
		}
		return
	}
	// Untransposed: accumulate x·T into a scratch row with Axpy over t's
	// contiguous rows, then write back.
	buf := mat.GetBuf[T](n)
	defer mat.PutBuf(buf)
	tmp := buf.Data[:n]
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for j := range tmp {
			tmp[j] = 0
		}
		for p := 0; p < n; p++ {
			v := row[p]
			if v == 0 {
				continue
			}
			if !lower {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[p:n], tmp[p:n])
				} else {
					tmp[p] += v
					Axpy(v, t.Row(p)[p+1:n], tmp[p+1:n])
				}
			} else {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[:p+1], tmp[:p+1])
				} else {
					Axpy(v, t.Row(p)[:p], tmp[:p])
					tmp[p] += v
				}
			}
		}
		if alpha == 1 {
			copy(row, tmp)
		} else {
			for j := range row {
				row[j] = alpha * tmp[j]
			}
		}
	}
}
