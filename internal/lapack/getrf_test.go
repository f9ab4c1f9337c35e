package lapack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// reconstructLU forms P⁻¹·L·U from a Getrf output to compare against A.
func reconstructLU(lu *mat.Matrix, piv []int) *mat.Matrix {
	m, n := lu.Rows, lu.Cols
	l := mat.New(m, n)
	u := mat.New(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i > j:
				l.Set(i, j, lu.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, lu.At(i, j))
			default:
				if i < n {
					u.Set(i, j, lu.At(i, j))
				}
			}
		}
	}
	prod := mat.New(m, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, l, u, 0, prod)
	Laswp(prod, piv, true) // undo the pivoting: P⁻¹·L·U
	return prod
}

// unitRoundoff returns the unit roundoff u of T: 2⁻⁵³ for float64, 2⁻²⁴
// for float32. Tolerances are written as multiples of it, so one test body
// gates both precisions at their own resolution.
func unitRoundoff[T mat.Float]() float64 {
	if _, ok := any(T(0)).(float32); ok {
		return 0x1p-24
	}
	return 0x1p-53
}

// roundTo returns m rounded to T (an exact copy for float64).
func roundTo[T mat.Float](m *mat.Matrix) *mat.Dense[T] {
	r := &mat.Dense[T]{Rows: m.Rows, Cols: m.Cols, Stride: m.Cols, Data: make([]T, m.Rows*m.Cols)}
	r.RoundFrom(m)
	return r
}

// widen returns the float64 values of m.
func widen[T mat.Float](m *mat.Dense[T]) *mat.Matrix {
	w := mat.New(m.Rows, m.Cols)
	m.WidenInto(w)
	return w
}

// randT returns a random r×c matrix of T (randMat's values, rounded).
func randT[T mat.Float](rng *rand.Rand, r, c int) *mat.Dense[T] {
	return roundTo[T](randMat(rng, r, c))
}

// scaledT is randT with randMat's values scaled by s before rounding.
func scaledT[T mat.Float](rng *rand.Rand, r, c int, s float64) *mat.Dense[T] {
	m := randMat(rng, r, c)
	for i := range m.Data {
		m.Data[i] *= s
	}
	return roundTo[T](m)
}

func TestGetrfReconstructsSquare(t *testing.T) {
	testGetrfReconstructs[float64](t, 1, [][2]int{{1, 1}, {2, 2}, {3, 3}, {8, 8}, {17, 17}, {40, 40}})
}

func TestGetrfReconstructsTall(t *testing.T) {
	testGetrfReconstructs[float64](t, 2, [][2]int{{5, 3}, {12, 4}, {40, 10}, {7, 7}})
}

func TestGetrf32Reconstructs(t *testing.T) {
	testGetrfReconstructs[float32](t, 41, [][2]int{{1, 1}, {5, 3}, {8, 8}, {13, 7}, {40, 40}, {64, 48}})
}

// testGetrfReconstructs factors random m×n tiles at T and checks P⁻¹·L·U of
// the widened factor recovers A at T's resolution, with every pivot in
// range.
func testGetrfReconstructs[T mat.Float](t *testing.T, seed int64, dims [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	for _, d := range dims {
		m, n := d[0], d[1]
		a := randT[T](rng, m, n)
		a0 := widen(a)
		piv, err := Getrf(a)
		if err != nil {
			t.Fatalf("%dx%d: unexpected error %v", m, n, err)
		}
		back := reconstructLU(widen(a), piv)
		tol := 1024 * unitRoundoff[T]() * float64(n+1)
		if diff := mat.MaxDiff(back, a0); diff > tol {
			t.Fatalf("%dx%d: P⁻¹LU differs from A by %g > %g", m, n, diff, tol)
		}
		for k, p := range piv {
			if p < k || p >= m {
				t.Fatalf("%dx%d: pivot %d at step %d out of range", m, n, p, k)
			}
		}
	}
}

func TestGetrfMultipliersBounded(t *testing.T) {
	// Partial pivoting guarantees |L_ij| ≤ 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		lu := randMat(rng, n+rng.Intn(5), n)
		if _, err := Getrf(lu); err != nil {
			return true // singular random matrix: vanishingly unlikely, skip
		}
		for i := 0; i < lu.Rows; i++ {
			for j := 0; j < n && j < i; j++ {
				if math.Abs(lu.At(i, j)) > 1+1e-14 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGetrfSingular(t *testing.T) {
	a := mat.New(3, 3) // all zeros
	_, err := Getrf(a)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestGetrfNoPivOnDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20
	a := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2*float64(n)) // strong diagonal dominance
	}
	want := a.Clone()
	if err := GetrfNoPiv(a); err != nil {
		t.Fatalf("GetrfNoPiv failed on diagonally dominant matrix: %v", err)
	}
	back := reconstructLU(a, nil)
	if d := mat.MaxDiff(back, want); d > 1e-10*float64(n)*want.NormMax() {
		t.Fatalf("LU reconstruction error %g", d)
	}
}

func TestGetrfNoPivBreaksDownOnZeroPivot(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{0, 1, 1, 0})
	if err := GetrfNoPiv(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected breakdown, got %v", err)
	}
}

func TestLaswpRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randMat(rng, n, 3)
		orig := a.Clone()
		piv := make([]int, n)
		for k := range piv {
			piv[k] = k + rng.Intn(n-k)
		}
		Laswp(a, piv, false)
		Laswp(a, piv, true)
		return mat.Equal(a, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGetrsSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 4, 16, 33} {
		a := randMat(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mat.MulVec(a, xTrue)
		lu := a.Clone()
		piv, err := Getrf(lu)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), b...)
		GetrsVec(blas.NoTrans, lu, piv, x)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9*(1+mat.VecNormInf(xTrue)) {
				t.Fatalf("n=%d: solve error at %d: %g vs %g", n, i, x[i], xTrue[i])
			}
		}
		// Transposed solve.
		bt := mat.MulVec(a.T(), xTrue)
		xt := append([]float64(nil), bt...)
		GetrsVec(blas.Trans, lu, piv, xt)
		for i := range xt {
			if math.Abs(xt[i]-xTrue[i]) > 1e-8*(1+mat.VecNormInf(xTrue)) {
				t.Fatalf("n=%d: transposed solve error at %d", n, i)
			}
		}
	}
}

func TestLUPivotGrowthReturnsDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 6, 6)
	lu := a.Clone()
	if _, err := Getrf(lu); err != nil {
		t.Fatal(err)
	}
	p := LUPivotGrowth(lu)
	for j := range p {
		if p[j] != math.Abs(lu.At(j, j)) {
			t.Fatal("LUPivotGrowth must return |U_jj|")
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 12, 12)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := mat.New(12, 12)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, inv, 0, prod)
	if d := mat.MaxDiff(prod, mat.Identity(12)); d > 1e-10 {
		t.Fatalf("A·A⁻¹ deviates from I by %g", d)
	}
}

// TestLaswpColsB1Identity verifies the (B1) Eliminate route:
// A·U⁻¹·L⁻¹·P == A·Akk⁻¹, exercised as Akk·Akk⁻¹ == I.
func TestLaswpColsB1Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 9
	akk := randMat(rng, n, n)
	lu := akk.Clone()
	piv, err := Getrf(lu)
	if err != nil {
		t.Fatal(err)
	}
	x := akk.Clone()
	blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu, x)
	blas.Trsm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 1, lu, x)
	LaswpCols(x, piv, true) // x := x·P
	if d := mat.MaxDiff(x, mat.Identity(n)); d > 1e-10 {
		t.Fatalf("Akk·Akk⁻¹ deviates from I by %g", d)
	}
}

func TestLaswpColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randMat(rng, 4, 7)
	orig := a.Clone()
	piv := []int{2, 5, 2, 3, 6, 5, 6}
	LaswpCols(a, piv, false)
	LaswpCols(a, piv, true)
	if !mat.Equal(a, orig) {
		t.Fatal("LaswpCols forward+inverse is not the identity")
	}
}
