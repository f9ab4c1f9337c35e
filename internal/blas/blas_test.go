package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randTri returns a well-conditioned triangular matrix (diagonal bumped away
// from zero so triangular solves stay accurate).
func randTri(rng *rand.Rand, n int, uplo Uplo, diag Diag) *mat.Matrix {
	t := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
			if !inTri {
				continue
			}
			if i == j {
				if diag == Unit {
					// Storage outside the implicit unit diagonal may hold
					// garbage; put junk there to verify it is ignored.
					t.Set(i, j, rng.NormFloat64())
				} else {
					t.Set(i, j, 2+rng.Float64())
					if rng.Intn(2) == 0 {
						t.Set(i, j, -t.At(i, j))
					}
				}
			} else {
				t.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return t
}

// naiveGemm is the O(mnk) reference used to validate the blocked kernel.
func naiveGemm(transA, transB Transpose, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, k := opShape(a, transA)
	_, n := opShape(b, transB)
	av := func(i, p int) float64 {
		if transA == Trans {
			return a.At(p, i)
		}
		return a.At(i, p)
	}
	bv := func(p, j int) float64 {
		if transB == Trans {
			return b.At(j, p)
		}
		return b.At(p, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += av(i, p) * bv(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
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

// viewOfT embeds a fresh random r×c matrix of T inside a larger parent so
// that Stride != Cols, returning the interior view.
func viewOfT[T mat.Float](rng *rand.Rand, r, c int) *mat.Dense[T] {
	return randT[T](rng, r+3, c+5).View(1, 2, r, c)
}

// forEachType runs the float64 and float32 instantiations of one test body
// as the subtests "float64" and "float32", each under forEachKernel.
func forEachType(t *testing.T, check64, check32 func(t *testing.T)) {
	t.Run("float64", func(t *testing.T) { forEachKernel(t, check64) })
	t.Run("float32", func(t *testing.T) { forEachKernel(t, check32) })
}

// TestKernelIDNamesEachTable: every kernel table this host runs reports
// its own name through KernelID, the same at both precisions: the host's
// selection, the AVX2 tables where that is AVX-512, and the portable ones.
func TestKernelIDNamesEachTable(t *testing.T) {
	name := func() string {
		id := KernelID[float64]()
		if id32 := KernelID[float32](); id32 != id {
			t.Fatalf("float64 table %q, float32 table %q", id, id32)
		}
		return id
	}
	host := name()
	if host != "avx512" && host != "avx2" && host != "portable" {
		t.Fatalf("host table %q", host)
	}
	var avx2, portable string
	if withAVX2Kernels(func() { avx2 = name() }) && (avx2 != "avx2" || avx2 == host) {
		t.Fatalf("AVX2 tables report %q beside host tables %q", avx2, host)
	}
	if withPortableKernels(func() { portable = name() }); portable != "portable" {
		t.Fatalf("portable tables report %q", portable)
	}
}

func TestDotAxpyScalIamax(t *testing.T) {
	forEachType(t, testDotAxpyScalIamax[float64], testDotAxpyScalIamax[float32])
}

func testDotAxpyScalIamax[T mat.Float](t *testing.T) {
	x := []T{1, 2, 3}
	y := []T{4, -5, 6}
	if Dot(x, y) != 4-10+18 {
		t.Fatalf("Dot = %g", Dot(x, y))
	}
	Axpy(2, x, y) // y = {6,-1,12}
	if y[0] != 6 || y[1] != -1 || y[2] != 12 {
		t.Fatalf("Axpy got %v", y)
	}
	Scal(0.5, y)
	if y[0] != 3 || y[1] != -0.5 || y[2] != 6 {
		t.Fatalf("Scal got %v", y)
	}
	if Iamax([]T{1, -7, 7, 2}) != 1 {
		t.Fatal("Iamax must return the first index of max abs")
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	forEachType(t, testAxpyZeroAlphaNoop[float64], testAxpyZeroAlphaNoop[float32])
}

// testAxpyZeroAlphaNoop: alpha == 0 must leave y alone even where x holds
// NaN (0·NaN would poison it), on the scalar loop and the SIMD kernel.
func testAxpyZeroAlphaNoop[T mat.Float](t *testing.T) {
	for _, n := range []int{2, 2 * simdMin} {
		x, y := make([]T, n), make([]T, n)
		for i := range x {
			x[i] = T(math.NaN())
			y[i] = T(i + 1)
		}
		Axpy(0, x, y)
		for i, v := range y {
			if v != T(i+1) {
				t.Fatalf("n=%d: Axpy with alpha=0 touched y[%d] = %g", n, i, v)
			}
		}
	}
}

// TestAxpyUnitAlphaIsAddSub: Axpy(−1, s, d) and Axpy(1, s, d) give the
// bits of the loops d − s and d + s, which lapack's subRows and addRows
// replace with them: fma(∓1, s, d) rounds once, as d ∓ s does (where
// both operands are NaN, either one's payload may come through). The
// operands cover ±0, ±Inf, NaN, subnormals and T's extremes, in rows
// shorter and longer than simdMin, and pairs whose exponents differ by 30
// to 60, which in float32 rows shorter than simdMin go through madd's
// float64 FMA: a double rounding would show there if one could occur.
func TestAxpyUnitAlphaIsAddSub(t *testing.T) {
	forEachType(t, testAxpyUnitAlphaIsAddSub[float64], testAxpyUnitAlphaIsAddSub[float32])
}

func testAxpyUnitAlphaIsAddSub[T mat.Float](t *testing.T) {
	d, s := unitAlphaOperands[T]()
	for _, n := range []int{1, 3, simdMin - 1, simdMin, 13, 64} {
		for lo := 0; lo < len(d); lo += n {
			hi := min(lo+n, len(d))
			for _, alpha := range []T{-1, 1} {
				got := append([]T(nil), d[lo:hi]...)
				Axpy(alpha, s[lo:hi], got)
				for i, g := range got {
					a, b := d[lo+i], s[lo+i]
					want := a + b
					if alpha < 0 {
						want = a - b
					}
					if a != a && b != b && g != g {
						continue // IEEE 754 lets either NaN operand's payload through
					}
					if math.Float64bits(float64(g)) != math.Float64bits(float64(want)) {
						t.Fatalf("n=%d alpha=%g: d=%g s=%g gives %g, want %g", n, alpha, a, b, g, want)
					}
				}
			}
		}
	}
}

// unitAlphaOperands returns the pairs (d[k], s[k]) TestAxpyUnitAlphaIsAddSub
// runs: every pair of a set of special and ordinary values of T, then
// random pairs whose exponents differ by 30 to 60.
func unitAlphaOperands[T mat.Float]() (d, s []T) {
	tiny, maxT := math.SmallestNonzeroFloat64, math.MaxFloat64
	if unitRoundoff[T]() > 1e-10 {
		tiny, maxT = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	var vals []T
	for _, v := range []float64{0, 1, 1.5, 3, tiny, 3 * tiny, 1e-3 * maxT, maxT, math.Inf(1), math.NaN()} {
		vals = append(vals, T(v), -T(v))
	}
	for _, a := range vals {
		for _, b := range vals {
			d, s = append(d, a), append(s, b)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for k := 0; k < 512; k++ {
		a := T(1 + rng.Float64())
		b := T(math.Ldexp(1+rng.Float64(), -30-rng.Intn(31)))
		if k%2 == 1 {
			b = -b
		}
		d, s = append(d, a), append(s, b)
	}
	return d, s
}

func TestGemmBetaZeroIgnoresNaNInC(t *testing.T) {
	forEachType(t, testGemmBetaZeroIgnoresNaNInC[float64], testGemmBetaZeroIgnoresNaNInC[float32])
}

func testGemmBetaZeroIgnoresNaNInC[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randT[T](rng, 3, 3)
	b := randT[T](rng, 3, 3)
	c := randT[T](rng, 3, 3)
	c.Fill(T(math.NaN()))
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.IsFinite() {
		t.Fatal("Gemm with beta=0 must overwrite NaNs in C")
	}
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	forEachType(t, testGemmAlphaZeroScalesOnly[float64], testGemmAlphaZeroScalesOnly[float32])
}

func testGemmAlphaZeroScalesOnly[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randT[T](rng, 3, 3)
	b := randT[T](rng, 3, 3)
	c := randT[T](rng, 3, 3)
	want := c.Clone()
	Gemm(NoTrans, NoTrans, 0, a, b, 2, c)
	for i := range want.Data {
		want.Data[i] *= 2
	}
	if !mat.Equal(c, want) {
		t.Fatal("Gemm alpha=0 should only scale C by beta")
	}
}

func TestGemmOnViews(t *testing.T) {
	forEachType(t, testGemmOnViews[float64], testGemmOnViews[float32])
}

func testGemmOnViews[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := randT[T](rng, 10, 10)
	a := big.View(0, 0, 4, 4)
	b := big.View(4, 4, 4, 4)
	c := big.View(6, 0, 4, 4).Clone()
	want := widen(c)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	naiveGemm(NoTrans, NoTrans, 1, widen(a), widen(b), 0, want)
	if d := mat.MaxDiff(widen(c), want); d > 256*unitRoundoff[T]() {
		t.Fatalf("Gemm on strided views is wrong: maxdiff %g", d)
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	forEachType(t, testGemmAssociativityProperty[float64], testGemmAssociativityProperty[float32])
}

func testGemmAssociativityProperty[T mat.Float](t *testing.T) {
	u := unitRoundoff[T]()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a, b, c := randT[T](rng, n, n), randT[T](rng, n, n), randT[T](rng, n, n)
		prod := func(x, y *mat.Dense[T]) *mat.Dense[T] {
			z := x.Clone()
			Gemm(NoTrans, NoTrans, 1, x, y, 0, z)
			return z
		}
		abc1 := prod(prod(a, b), c)
		abc2 := prod(a, prod(b, c))
		return mat.MaxDiff(abc1, abc2) < 1024*u*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGemmAgainstNaiveAllVariants(t *testing.T) {
	forEachType(t, testGemmAgainstNaiveAllVariants[float64], testGemmAgainstNaiveAllVariants[float32])
}

// testGemmAgainstNaiveAllVariants: general alpha and beta over all four
// transpose variants, checked against the naive product of the widened
// operands.
func testGemmAgainstNaiveAllVariants[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 6}, {64, 64, 64}, {65, 70, 67}, {130, 40, 90}}
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			for _, d := range dims {
				m, n, k := d[0], d[1], d[2]
				var a, b *mat.Dense[T]
				if ta == NoTrans {
					a = randT[T](rng, m, k)
				} else {
					a = randT[T](rng, k, m)
				}
				if tb == NoTrans {
					b = randT[T](rng, k, n)
				} else {
					b = randT[T](rng, n, k)
				}
				got := randT[T](rng, m, n)
				want := widen(got)
				var alpha, beta T = 1.3, -0.7
				Gemm(ta, tb, alpha, a, b, beta, got)
				naiveGemm(ta, tb, float64(alpha), widen(a), widen(b), float64(beta), want)
				if d := mat.MaxDiff(widen(got), want); d > 256*unitRoundoff[T]()*float64(k+2) {
					t.Fatalf("Gemm ta=%v tb=%v %v: maxdiff %g", ta, tb, d, d)
				}
			}
		}
	}
}

// applyTri computes op(T)·B or B·op(T) honoring the implicit unit diagonal,
// as a reference for Trsm/Trmm tests.
func applyTri(side Side, uplo Uplo, trans Transpose, diag Diag, tm, b *mat.Matrix) *mat.Matrix {
	n := tm.Rows
	full := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
			v := 0.0
			if inTri {
				v = tm.At(i, j)
			}
			if i == j && diag == Unit {
				v = 1
			}
			full.Set(i, j, v)
		}
	}
	out := mat.New(b.Rows, b.Cols)
	if side == Left {
		naiveGemm(trans, NoTrans, 1, full, b, 0, out)
	} else {
		naiveGemm(NoTrans, trans, 1, b, full, 0, out)
	}
	return out
}

// TestTrsmAllVariants and TestTrsm32AllVariants solve with Trsm at each
// precision and verify op(T)·X ≈ alpha·B for every variant, on orders from
// one element to several micro-panel blocks, under both kernel tables.
func TestTrsmAllVariants(t *testing.T) { forEachKernel(t, testTrsmAllVariants[float64]) }

func TestTrsm32AllVariants(t *testing.T) { forEachKernel(t, testTrsmAllVariants[float32]) }

func testTrsmAllVariants[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 3, 6, 13, 40} {
		for _, w := range []int{1, 5, 9} {
			for _, alpha := range []T{1, -0.5} {
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
								x := widen(b)
								back := applyTri(side, uplo, trans, diag, widen(tm), x)
								for i := range b0.Data {
									b0.Data[i] *= float64(alpha)
								}
								// Substitution on an order-n triangle: scale
								// the gate with n and with the solution norm
								// (unit-triangular solves amplify x).
								tol := 1024 * unitRoundoff[T]() * float64(n) * max(1, x.NormMax())
								if d := mat.MaxDiff(back, b0); d > tol {
									t.Fatalf("Trsm n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v residual %g > %g",
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

func TestTrsmAlphaScaling(t *testing.T) {
	forEachType(t, testTrsmAlphaScaling[float64], testTrsmAlphaScaling[float32])
}

// testTrsmAlphaScaling: scaling by a power of two commutes with every
// rounding, so alpha = 2 must give exactly twice the alpha = 1 solution.
func testTrsmAlphaScaling[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 5
	tm := roundTo[T](randTri(rng, n, Upper, NonUnit))
	b := randT[T](rng, n, 3)
	x1 := b.Clone()
	Trsm(Left, Upper, NoTrans, NonUnit, 2, tm, x1)
	x2 := b.Clone()
	Trsm(Left, Upper, NoTrans, NonUnit, 1, tm, x2)
	for i := range x2.Data {
		x2.Data[i] *= 2
	}
	if !mat.Equal(x1, x2) {
		t.Fatalf("Trsm alpha scaling incorrect: maxdiff %g", mat.MaxDiff(x1, x2))
	}
}

// TestTrmmAllVariants and TestTrmm32AllVariants cross-check Trmm at each
// precision against the naive product of the widened operands for every
// variant.
func TestTrmmAllVariants(t *testing.T) { forEachKernel(t, testTrmmAllVariants[float64]) }

func TestTrmm32AllVariants(t *testing.T) { forEachKernel(t, testTrmmAllVariants[float32]) }

func testTrmmAllVariants[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 3, 6, 13, 40} {
		for _, w := range []int{1, 5, 7} {
			for _, alpha := range []T{1, -0.5, 1.5} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Upper, Lower} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := roundTo[T](randTri(rng, n, uplo, diag))
								var got *mat.Dense[T]
								if side == Left {
									got = viewOfT[T](rng, n, w)
								} else {
									got = viewOfT[T](rng, w, n)
								}
								want := applyTri(side, uplo, trans, diag, widen(tm), widen(got))
								for i := range want.Data {
									want.Data[i] *= float64(alpha)
								}
								Trmm(side, uplo, trans, diag, alpha, tm, got)
								tol := 1024 * unitRoundoff[T]() * float64(n)
								if d := mat.MaxDiff(widen(got), want); d > tol {
									t.Fatalf("Trmm n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
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

func TestTrsmTrmmRoundTripProperty(t *testing.T) {
	forEachType(t, testTrsmTrmmRoundTripProperty[float64], testTrsmTrmmRoundTripProperty[float32])
}

func testTrsmTrmmRoundTripProperty[T mat.Float](t *testing.T) {
	u := unitRoundoff[T]()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		uplo := Uplo(rng.Intn(2))
		diag := Diag(rng.Intn(2))
		side := Side(rng.Intn(2))
		trans := Transpose(rng.Intn(2))
		tm := roundTo[T](randTri(rng, n, uplo, diag))
		var b *mat.Dense[T]
		if side == Left {
			b = randT[T](rng, n, 1+rng.Intn(6))
		} else {
			b = randT[T](rng, 1+rng.Intn(6), n)
		}
		x := b.Clone()
		Trsm(side, uplo, trans, diag, 1, tm, x)
		scale := max(1, x.NormMax()) // the solve's growth bounds the round trip's error
		Trmm(side, uplo, trans, diag, 1, tm, x)
		return mat.MaxDiff(x, b) < 1024*u*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
