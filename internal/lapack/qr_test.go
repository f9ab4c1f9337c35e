package lapack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

func TestLarfgAnnihilates(t *testing.T) { testLarfgAnnihilates[float64](t, 1) }

func TestLarfg32Annihilates(t *testing.T) { testLarfgAnnihilates[float32](t, 47) }

// testLarfgAnnihilates applies the reflector Larfg generates at T, in
// float64, to the original vector: it must give (beta, 0) at T's
// resolution, with |beta| the vector's norm.
func testLarfgAnnihilates[T mat.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tol := 16 * unitRoundoff[T]()
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		alpha := T(rng.NormFloat64())
		x := make([]T, n)
		orig := []float64{float64(alpha)}
		for i := range x {
			x[i] = T(rng.NormFloat64())
			orig = append(orig, float64(x[i]))
		}
		beta, tau := Larfg(alpha, x)
		v := []float64{1}
		for _, xi := range x {
			v = append(v, float64(xi))
		}
		s := 0.0
		for i := range v {
			s += v[i] * orig[i]
		}
		got := make([]float64, len(orig))
		for i := range orig {
			got[i] = orig[i] - float64(tau)*s*v[i]
		}
		scale := 1 + math.Abs(float64(beta))
		if math.Abs(got[0]-float64(beta)) > tol*scale {
			t.Fatalf("H·x head = %g, want beta = %g", got[0], beta)
		}
		for i := 1; i < len(got); i++ {
			if math.Abs(got[i]) > tol*scale {
				t.Fatalf("H·x tail not annihilated: %g at %d", got[i], i)
			}
		}
		if tau != 0 {
			if d := math.Abs(math.Abs(float64(beta)) - mat.VecNorm2(orig)); d > tol*scale {
				t.Fatalf("beta magnitude off by %g", d)
			}
		}
	}
}

func TestLarfgZeroTail(t *testing.T) {
	beta, tau := Larfg(3.5, []float64{0, 0, 0})
	if tau != 0 || beta != 3.5 {
		t.Fatalf("Larfg with zero tail: beta=%g tau=%g", beta, tau)
	}
}

// explicitQ builds the dense Q = I − V·T·Vᵀ of a Geqrt factorization by
// applying Unmqr(NoTrans) to the identity.
func explicitQ(v, t *mat.Matrix) *mat.Matrix {
	q := mat.Identity(v.Rows)
	Unmqr(blas.NoTrans, v, t, q)
	return q
}

func orthoError(q *mat.Matrix) float64 {
	n := q.Rows
	qtq := mat.New(n, n)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, q, q, 0, qtq)
	return mat.MaxDiff(qtq, mat.Identity(n))
}

// upperOf returns a dense copy of the upper triangle of the leading
// min(r,c) rows of m, zeros elsewhere — the R factor a QR kernel leaves in
// a tile that also stores V below the diagonal.
func upperOf(m *mat.Matrix) *mat.Matrix {
	u := mat.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			u.Set(i, j, m.At(i, j))
		}
	}
	return u
}

// strictLowerOf snapshots the strictly lower triangle (the storage QR tile
// kernels must never touch).
func strictLowerOf(m *mat.Matrix) *mat.Matrix {
	l := mat.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i && j < m.Cols; j++ {
			l.Set(i, j, m.At(i, j))
		}
	}
	return l
}

func TestGeqrtFactorization(t *testing.T) { testGeqrtFactorization[float64](t, 2) }

func TestGeqrt32Reconstructs(t *testing.T) { testGeqrtFactorization[float32](t, 43) }

// testGeqrtFactorization factors tiles at T (unblocked and blocked inner
// paths) and replays the widened factor through the float64 Unmqr: Q must
// be orthogonal and Q·R must recover A at T's resolution — the V/T
// contract the serialized-factor replay relies on at either precision.
// The tiles also come scaled toward either end of T's range, where the
// reflectors' squares under- or overflow unless Larfg scales them.
func testGeqrtFactorization[T mat.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	u := unitRoundoff[T]()
	for _, s := range append([]float64{1}, larfgScales[T]()...) {
		for _, d := range [][2]int{{1, 1}, {3, 3}, {4, 4}, {8, 8}, {13, 7}, {16, 16}, {20, 12}, {40, 40}, {48, 33}} {
			m, n := d[0], d[1]
			for _, ib := range []int{0, 4} {
				a := scaledT[T](rng, m, n, s)
				a0 := widen(a)
				tf := roundTo[T](mat.New(n, n))
				GeqrtIB(a, tf, ib)
				v, tw := widen(a), widen(tf)
				if e := orthoError(explicitQ(v, tw)); !(e <= 256*u*float64(m)) {
					t.Fatalf("%dx%d ib=%d scale %g: Q not orthogonal: %g", m, n, ib, s, e)
				}
				c := upperOf(v)
				Unmqr(blas.NoTrans, v, tw, c)
				if diff := mat.MaxDiff(c, a0) / s; !(diff <= 1024*u*float64(m)) {
					t.Fatalf("%dx%d ib=%d scale %g: Q·R differs from A by %g·scale", m, n, ib, s, diff)
				}
			}
		}
	}
}

func TestUnmqrTransUndoesNoTrans(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(12)
		n := 1 + rng.Intn(m)
		a := randMat(rng, m, n)
		tt := mat.New(n, n)
		Geqrt(a, tt)
		c0 := randMat(rng, m, 1+rng.Intn(6))
		c := c0.Clone()
		Unmqr(blas.Trans, a, tt, c)
		Unmqr(blas.NoTrans, a, tt, c)
		return mat.MaxDiff(c, c0) < 1e-10*float64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnmqrTransTriangularizesA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 14, 9
	a0 := randMat(rng, m, n)
	a := a0.Clone()
	tt := mat.New(n, n)
	Geqrt(a, tt)
	c := a0.Clone()
	Unmqr(blas.Trans, a, tt, c) // Qᵀ·A must equal [R; 0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if i <= j && i < n {
				if math.Abs(c.At(i, j)-a.At(i, j)) > 1e-11*float64(m) {
					t.Fatalf("R mismatch at (%d,%d)", i, j)
				}
			} else if math.Abs(c.At(i, j)) > 1e-11*float64(m) {
				t.Fatalf("Qᵀ·A not zero below diagonal at (%d,%d): %g", i, j, c.At(i, j))
			}
		}
	}
}

func TestTsqrtFactorization(t *testing.T) { testTsqrtFactorization[float64](t, 4) }

func TestTsqrt32Reconstructs(t *testing.T) { testTsqrtFactorization[float32](t, 44) }

// testTsqrtFactorization factors a triangle-on-square stack at T (unblocked
// and blocked inner paths, unscaled and scaled as in Geqrt's test), checks
// R's strictly lower storage (V data from an earlier factorization) is
// untouched, and replays the widened factor through the float64 Tsmqr:
// Q·[R1; 0] must recover [R0; A0].
func testTsqrtFactorization[T mat.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range append([]float64{1}, larfgScales[T]()...) {
		for _, d := range [][2]int{{1, 1}, {2, 2}, {5, 5}, {8, 8}, {13, 13}, {16, 16}, {33, 20}, {40, 40}} {
			n, m := d[0], d[1]
			for _, ib := range []int{0, 4} {
				r := scaledT[T](rng, n, n, s)
				a := scaledT[T](rng, m, n, s)
				r0 := widen(r)
				a0 := widen(a)
				tf := roundTo[T](mat.New(n, n))
				TsqrtIB(r, a, tf, ib)
				r1 := widen(r)
				if !mat.Equal(strictLowerOf(r1), strictLowerOf(r0)) {
					t.Fatalf("n=%d m=%d ib=%d scale %g: touched R's strictly lower storage", n, m, ib, s)
				}
				c1 := upperOf(r1)
				c2 := mat.New(m, n)
				Tsmqr(blas.NoTrans, widen(a), widen(tf), c1, c2)
				tol := 1024 * unitRoundoff[T]() * float64(n+m)
				if diff := mat.MaxDiff(c1, upperOf(r0)) / s; !(diff <= tol) {
					t.Fatalf("n=%d m=%d ib=%d scale %g: R block off by %g·scale > %g", n, m, ib, s, diff, tol)
				}
				if diff := mat.MaxDiff(c2, a0) / s; !(diff <= tol) {
					t.Fatalf("n=%d m=%d ib=%d scale %g: A block off by %g·scale > %g", n, m, ib, s, diff, tol)
				}
			}
		}
	}
}

func TestTsmqrOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(10)
		m := 1 + rng.Intn(10)
		rTile := mat.New(nb, nb)
		for i := 0; i < nb; i++ {
			for j := i; j < nb; j++ {
				rTile.Set(i, j, rng.NormFloat64())
			}
		}
		aTile := randMat(rng, m, nb)
		tt := mat.New(nb, nb)
		Tsqrt(rTile, aTile, tt)
		k := 1 + rng.Intn(5)
		c1 := randMat(rng, nb, k)
		c2 := randMat(rng, m, k)
		c1o, c2o := c1.Clone(), c2.Clone()
		// Norm preservation of the stacked vector under Q, and round trip.
		before := math.Hypot(c1.NormFro(), c2.NormFro())
		Tsmqr(blas.Trans, aTile, tt, c1, c2)
		after := math.Hypot(c1.NormFro(), c2.NormFro())
		if math.Abs(before-after) > 1e-10*(1+before) {
			return false
		}
		Tsmqr(blas.NoTrans, aTile, tt, c1, c2)
		return mat.MaxDiff(c1, c1o) < 1e-10*(1+before) && mat.MaxDiff(c2, c2o) < 1e-10*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTtqrtFactorization(t *testing.T) { testTtqrtFactorization[float64](t, 5) }

func TestTtqrt32Reconstructs(t *testing.T) { testTtqrtFactorization[float32](t, 45) }

// testTtqrtFactorization factors a triangle-on-triangle stack at T
// (unblocked and blocked inner paths, unscaled and scaled as in Geqrt's
// test), checks both tiles' strictly lower storage is untouched, and
// replays the widened factor through the float64 Ttmqr: Q·[R1; 0] must
// recover the two original upper triangles.
func testTtqrtFactorization[T mat.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range append([]float64{1}, larfgScales[T]()...) {
		for _, n := range []int{1, 2, 4, 5, 9, 13, 16, 40} {
			for _, ib := range []int{0, 4} {
				r1 := scaledT[T](rng, n, n, s)
				r2 := scaledT[T](rng, n, n, s)
				r1w, r2w := widen(r1), widen(r2)
				r1u0, r2u0 := upperOf(r1w), upperOf(r2w)
				r1low, r2low := strictLowerOf(r1w), strictLowerOf(r2w)
				tf := roundTo[T](mat.New(n, n))
				TtqrtIB(r1, r2, tf, ib)
				r1w, r2w = widen(r1), widen(r2)
				if !mat.Equal(strictLowerOf(r1w), r1low) || !mat.Equal(strictLowerOf(r2w), r2low) {
					t.Fatalf("n=%d ib=%d scale %g: touched strictly lower storage", n, ib, s)
				}
				c1 := upperOf(r1w)
				c2 := mat.New(n, n)
				Ttmqr(blas.NoTrans, r2w, widen(tf), c1, c2)
				tol := 1024 * unitRoundoff[T]() * float64(2*n)
				if diff := mat.MaxDiff(c1, r1u0) / s; !(diff <= tol) {
					t.Fatalf("n=%d ib=%d scale %g: R1 off by %g·scale > %g", n, ib, s, diff, tol)
				}
				if diff := mat.MaxDiff(c2, r2u0) / s; !(diff <= tol) {
					t.Fatalf("n=%d ib=%d scale %g: R2 off by %g·scale > %g", n, ib, s, diff, tol)
				}
			}
		}
	}
}

func TestTtmqrRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(10)
		mkTri := func() *mat.Matrix {
			m := mat.New(nb, nb)
			for i := 0; i < nb; i++ {
				for j := i; j < nb; j++ {
					m.Set(i, j, rng.NormFloat64())
				}
			}
			return m
		}
		r1, r2 := mkTri(), mkTri()
		tt := mat.New(nb, nb)
		Ttqrt(r1, r2, tt)
		k := 1 + rng.Intn(5)
		c1, c2 := randMat(rng, nb, k), randMat(rng, nb, k)
		c1o, c2o := c1.Clone(), c2.Clone()
		Ttmqr(blas.Trans, r2, tt, c1, c2)
		Ttmqr(blas.NoTrans, r2, tt, c1, c2)
		scale := 1 + c1o.NormMax() + c2o.NormMax()
		return mat.MaxDiff(c1, c1o) < 1e-10*scale && mat.MaxDiff(c2, c2o) < 1e-10*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTtmqrIgnoresLowerJunkInV(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nb := 6
	mkTri := func() *mat.Matrix {
		m := mat.New(nb, nb)
		for i := 0; i < nb; i++ {
			for j := i; j < nb; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		return m
	}
	r1, r2 := mkTri(), mkTri()
	tt := mat.New(nb, nb)
	Ttqrt(r1, r2, tt)
	c1, c2 := randMat(rng, nb, 3), randMat(rng, nb, 3)
	c1a, c2a := c1.Clone(), c2.Clone()
	Ttmqr(blas.Trans, r2, tt, c1a, c2a)
	// Poison the lower triangle of the V tile; results must not change.
	v2junk := r2.Clone()
	for i := 0; i < nb; i++ {
		for j := 0; j < i; j++ {
			v2junk.Set(i, j, 1e30)
		}
	}
	c1b, c2b := c1.Clone(), c2.Clone()
	Ttmqr(blas.Trans, v2junk, tt, c1b, c2b)
	if !mat.Equal(c1a, c1b) || !mat.Equal(c2a, c2b) {
		t.Fatal("Ttmqr read the lower triangle of its V operand")
	}
}

func TestOneNormEstOnRandomInverses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	good := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(30)
		a := randMat(rng, n, n)
		inv, err := Inverse(a)
		if err != nil {
			continue
		}
		exact := inv.Norm1()
		lu := a.Clone()
		piv, err := Getrf(lu)
		if err != nil {
			continue
		}
		est := InvNorm1EstLU(lu, piv)
		if est > exact*(1+1e-10) {
			t.Fatalf("estimate %g exceeds exact norm %g", est, exact)
		}
		if est >= exact/3 {
			good++
		}
	}
	if good < trials*8/10 {
		t.Fatalf("estimator within 3x of exact in only %d/%d trials", good, trials)
	}
}

func TestOneNormEstExactOperator(t *testing.T) {
	// For the identity, the estimate must be exactly 1.
	id := func(x []float64) {}
	if got := OneNormEst(7, id, id); math.Abs(got-1) > 1e-14 {
		t.Fatalf("‖I‖₁ estimate = %g", got)
	}
	// For a diagonal operator the 1-norm is the largest |d_i|.
	d := []float64{1, -9, 2.5, 4}
	apply := func(x []float64) {
		for i := range x {
			x[i] *= d[i]
		}
	}
	if got := OneNormEst(4, apply, apply); math.Abs(got-9) > 1e-12 {
		t.Fatalf("diag norm estimate = %g, want 9", got)
	}
}

func TestGeconEst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Well-conditioned: rcond within a factor ~3 of the exact value.
	a := randMat(rng, 20, 20)
	anorm := a.Norm1()
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	exact := 1 / (anorm * inv.Norm1())
	lu := a.Clone()
	piv, _ := Getrf(lu)
	got := GeconEst(lu, piv, anorm)
	if got < exact/1.01 || got > 3.5*exact {
		t.Fatalf("rcond estimate %g, exact %g", got, exact)
	}
	// Degenerate inputs.
	if GeconEst(lu, piv, 0) != 0 {
		t.Fatal("zero norm must give rcond 0")
	}
	// An ill-conditioned matrix must report a tiny rcond.
	h := mat.New(12, 12)
	for i := 1; i <= 12; i++ {
		for j := 1; j <= 12; j++ {
			h.Set(i-1, j-1, 1/float64(i+j-1))
		}
	}
	lh := h.Clone()
	ph, _ := Getrf(lh)
	if rc := GeconEst(lh, ph, h.Norm1()); rc > 1e-10 {
		t.Fatalf("hilbert rcond = %g, expected ≪ 1e-10", rc)
	}
}

// TestQRLeavesDropRoundingColumns factors rank-one stacks, whose columns
// past the first hold only rounding noise once the first reflector has
// run: an all −1 tile (GEQRT, the Wilkinson operator's sub-diagonal
// tiles), a triangle with one nonzero row on an all −1 tile (TSQRT) and two
// such triangles (TTQRT). At every inner block size and both precisions
// the leaves must take H = I for those columns: T's diagonal is zero past
// its first entry and so are the stored Householder vectors.
func TestQRLeavesDropRoundingColumns(t *testing.T) {
	t.Run("float64", testQRLeavesDropRoundingColumns[float64])
	t.Run("float32", testQRLeavesDropRoundingColumns[float32])
}

func testQRLeavesDropRoundingColumns[T mat.Float](t *testing.T) {
	check := func(name string, n, ib int, tf, v *mat.Dense[T], vRows func(j int) (int, int)) {
		t.Helper()
		if tf.At(0, 0) == 0 {
			t.Fatalf("%s n=%d ib=%d: the first reflector is the identity", name, n, ib)
		}
		for j := 1; j < n; j++ {
			if tau := tf.At(j, j); tau != 0 {
				t.Fatalf("%s n=%d ib=%d: tau[%d] = %g on a rank-one stack, want 0", name, n, ib, j, tau)
			}
			lo, hi := vRows(j)
			for i := lo; i < hi; i++ {
				if x := v.At(i, j); x != 0 {
					t.Fatalf("%s n=%d ib=%d: v[%d][%d] = %g, want 0", name, n, ib, i, j, x)
				}
			}
		}
	}
	row := func(n int, c T) *mat.Dense[T] {
		r := roundTo[T](mat.New(n, n))
		for j := 0; j < n; j++ {
			r.Set(0, j, c)
		}
		return r
	}
	for _, n := range []int{7, 32, 64, 100} {
		for _, ib := range []int{4, 8, 16, 31, 32, 33} {
			a := roundTo[T](mat.New(n, n))
			a.Fill(-1)
			tf := roundTo[T](mat.New(n, n))
			GeqrtIB(a, tf, ib)
			check("GEQRT", n, ib, tf, a, func(j int) (int, int) { return j + 1, n })

			r := row(n, 3)
			a.Fill(-1)
			TsqrtIB(r, a, tf, ib)
			check("TSQRT", n, ib, tf, a, func(int) (int, int) { return 0, n })

			r, r2 := row(n, 3), row(n, -1)
			TtqrtIB(r, r2, tf, ib)
			check("TTQRT", n, ib, tf, r2, func(j int) (int, int) { return 0, j + 1 })
		}
	}
}
