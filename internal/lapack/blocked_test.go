package lapack

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// refGetrf is the classical textbook right-looking elimination, kept as an
// independent reference for the recursive Getrf: same pivot rule (first
// strict column max), scalar updates in the canonical order.
func refGetrf(a *mat.Matrix) ([]int, error) {
	m, n := a.Rows, a.Cols
	piv := make([]int, n)
	var err error
	for k := 0; k < n; k++ {
		p, pv := k, math.Abs(a.At(k, k))
		for i := k + 1; i < m; i++ {
			if v := math.Abs(a.At(i, k)); v > pv {
				p, pv = i, v
			}
		}
		piv[k] = p
		if p != k {
			a.SwapRows(k, p)
		}
		akk := a.At(k, k)
		if akk == 0 {
			err = ErrSingular
			continue
		}
		for i := k + 1; i < m; i++ {
			lik := a.At(i, k) / akk
			a.Set(i, k, lik)
			for j := k + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)-lik*a.At(k, j))
			}
		}
	}
	return piv, err
}

var blockedShapes = []struct {
	name string
	m, n int
}{
	{"nb8", 8, 8},
	{"nb40", 40, 40}, // not a multiple of the default ib=32
	{"nb128", 128, 128},
	{"nb250", 250, 250}, // non-power-of-two production tile
	{"odd", 133, 97},    // neither dim a multiple of any ib below
	{"tall", 260, 250},  // padded-N trapezoid (m > n)
}

// TestGetrfMatchesReference checks the recursive Getrf against the classical
// elimination: identical pivot sequences and factors equal to rounding.
func TestGetrfMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range blockedShapes {
		t.Run(s.name, func(t *testing.T) {
			a0 := randMat(rng, s.m, s.n)
			ref := a0.Clone()
			refPiv, refErr := refGetrf(ref)

			got := a0.Clone()
			piv, err := Getrf(got)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("error mismatch: recursive %v, reference %v", err, refErr)
			}
			for k := range refPiv {
				if piv[k] != refPiv[k] {
					t.Fatalf("pivot sequence diverges at step %d: got %d, want %d", k, piv[k], refPiv[k])
				}
			}
			tol := 1e-9 * float64(s.n) * (1 + ref.NormMax())
			if d := mat.MaxDiff(got, ref); d > tol {
				t.Fatalf("factors differ by %g (tol %g)", d, tol)
			}
		})
	}
}

// TestGeqrtBlockedMatchesUnblocked factors the same tile with the blocked
// strips (several inner block sizes, including non-divisors of n) and with
// the unblocked leaf (ib ≥ n), and requires identical V, R, and T factors
// (t's upper triangle) up to rounding — the contract that lets the blocked
// kernel slot in under the serialized-factor replay unchanged.
func TestGeqrtBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range blockedShapes {
		a0 := randMat(rng, s.m, s.n)
		aRef, tRef := a0.Clone(), mat.New(s.n, s.n)
		GeqrtIB(aRef, tRef, s.n+1)
		for _, ib := range []int{7, 32} {
			if ib >= s.n {
				continue
			}
			aB, tB := a0.Clone(), mat.New(s.n, s.n)
			GeqrtIB(aB, tB, ib)
			tol := 1e-8 * float64(s.m) * (1 + aRef.NormMax())
			if d := mat.MaxDiff(aB, aRef); d > tol {
				t.Fatalf("%s ib=%d: V/R differ from unblocked by %g (tol %g)", s.name, ib, d, tol)
			}
			// T is t's upper triangle; the lower one holds Y = V₁·Tᵀ.
			if d := mat.MaxDiff(upperOf(tB), upperOf(tRef)); d > tol {
				t.Fatalf("%s ib=%d: T differs from unblocked by %g (tol %g)", s.name, ib, d, tol)
			}
		}
	}
}

// TestTsqrtBlockedMatchesUnblocked does the same for the TS kernel: an
// upper-triangular top tile stacked on a full tile, with the lower junk of
// the R tile required to survive both paths.
func TestTsqrtBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nb := range []int{8, 40, 128, 250} {
		r0 := mat.New(nb, nb)
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				if j >= i {
					r0.Set(i, j, rng.NormFloat64())
				} else {
					r0.Set(i, j, 777)
				}
			}
		}
		a0 := randMat(rng, nb, nb)
		rRef, aRef, tRef := r0.Clone(), a0.Clone(), mat.New(nb, nb)
		TsqrtIB(rRef, aRef, tRef, nb+1)
		for _, ib := range []int{7, 32} {
			if ib >= nb {
				continue
			}
			rB, aB, tB := r0.Clone(), a0.Clone(), mat.New(nb, nb)
			TsqrtIB(rB, aB, tB, ib)
			for i := 1; i < nb; i++ {
				for j := 0; j < i; j++ {
					if rB.At(i, j) != 777 {
						t.Fatalf("nb=%d ib=%d: blocked Tsqrt touched lower part of R at (%d,%d)", nb, ib, i, j)
					}
				}
			}
			tol := 1e-8 * float64(nb) * (1 + rRef.NormMax() + aRef.NormMax())
			if d := maxDiffUpper(rB, rRef); d > tol {
				t.Fatalf("nb=%d ib=%d: R differs by %g (tol %g)", nb, ib, d, tol)
			}
			if d := mat.MaxDiff(aB, aRef); d > tol {
				t.Fatalf("nb=%d ib=%d: V2 differs by %g (tol %g)", nb, ib, d, tol)
			}
			if d := mat.MaxDiff(tB, tRef); d > tol {
				t.Fatalf("nb=%d ib=%d: T differs by %g (tol %g)", nb, ib, d, tol)
			}
		}
	}
}

// TestTtqrtBlockedMatchesUnblocked: triangle-on-triangle, both tiles' lower
// junk preserved, trapezoidal V2 strips exercised at several inner blocks.
func TestTtqrtBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, nb := range []int{8, 40, 128, 250} {
		mkTri := func() *mat.Matrix {
			m := mat.New(nb, nb)
			for i := 0; i < nb; i++ {
				for j := 0; j < nb; j++ {
					if j >= i {
						m.Set(i, j, rng.NormFloat64())
					} else {
						m.Set(i, j, 555)
					}
				}
			}
			return m
		}
		r1o, r2o := mkTri(), mkTri()
		r1Ref, r2Ref, tRef := r1o.Clone(), r2o.Clone(), mat.New(nb, nb)
		TtqrtIB(r1Ref, r2Ref, tRef, nb+1)
		for _, ib := range []int{7, 32} {
			if ib >= nb {
				continue
			}
			r1B, r2B, tB := r1o.Clone(), r2o.Clone(), mat.New(nb, nb)
			TtqrtIB(r1B, r2B, tB, ib)
			for i := 1; i < nb; i++ {
				for j := 0; j < i; j++ {
					if r1B.At(i, j) != 555 || r2B.At(i, j) != 555 {
						t.Fatalf("nb=%d ib=%d: blocked Ttqrt touched a lower triangle at (%d,%d)", nb, ib, i, j)
					}
				}
			}
			tol := 1e-8 * float64(nb) * (1 + r1Ref.NormMax() + r2Ref.NormMax())
			if d := maxDiffUpper(r1B, r1Ref); d > tol {
				t.Fatalf("nb=%d ib=%d: merged R differs by %g (tol %g)", nb, ib, d, tol)
			}
			if d := maxDiffUpper(r2B, r2Ref); d > tol {
				t.Fatalf("nb=%d ib=%d: V2 differs by %g (tol %g)", nb, ib, d, tol)
			}
			if d := mat.MaxDiff(tB, tRef); d > tol {
				t.Fatalf("nb=%d ib=%d: T differs by %g (tol %g)", nb, ib, d, tol)
			}
		}
	}
}

// maxDiffUpper compares only the upper triangles (the defined region of the
// R-tile outputs; the strictly-lower parts hold sentinels or V data).
func maxDiffUpper(a, b *mat.Matrix) float64 {
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := i; j < a.Cols; j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}

// TestSubAddRowsMatchLoop: subRows and addRows give the plain loops' bits
// on ±0, ±Inf, NaN, subnormal and extreme operands, in rows shorter and
// longer than blas's SIMD cut, at both precisions. blas's
// TestAxpyUnitAlphaIsAddSub runs the Axpy they call under every kernel
// table.
func TestSubAddRowsMatchLoop(t *testing.T) {
	t.Run("float64", testSubAddRowsMatchLoop[float64])
	t.Run("float32", testSubAddRowsMatchLoop[float32])
}

func testSubAddRowsMatchLoop[T mat.Float](t *testing.T) {
	var vals []T
	for _, v := range []float64{0, 1, 1.5, 0x1p-40, 1e-310, 1e-44, 1e300, 1e38, math.Inf(1), math.NaN()} {
		vals = append(vals, T(v), -T(v))
	}
	for _, w := range []int{3, 13} {
		// Row i of dst holds vals[i] throughout; src cycles through vals.
		n := len(vals)
		dst := &mat.Dense[T]{Rows: n, Cols: w, Stride: w, Data: make([]T, n*w)}
		src := &mat.Dense[T]{Rows: n, Cols: w, Stride: w, Data: make([]T, n*w)}
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				dst.Set(i, j, vals[i])
				src.Set(i, j, vals[(i*w+j)%n])
			}
		}
		for _, sub := range []bool{true, false} {
			got := dst.Clone()
			if sub {
				subRows(got, src)
			} else {
				addRows(got, src)
			}
			for k, g := range got.Data {
				a, b := dst.Data[k], src.Data[k]
				want := a + b
				if sub {
					want = a - b
				}
				if a != a && b != b && g != g {
					continue // either NaN operand's payload may come through
				}
				if math.Float64bits(float64(g)) != math.Float64bits(float64(want)) {
					t.Fatalf("w=%d sub=%v: %g and %g give %g, want %g", w, sub, a, b, g, want)
				}
			}
		}
	}
}
