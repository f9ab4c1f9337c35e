package lapack

import (
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

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

// rand32 returns a random r×c float32 tile image.
func rand32(rng *rand.Rand, r, c int) *mat.Matrix32 {
	m := mat.NewMatrix32(r, c)
	m.RoundFrom(randMat(rng, r, c))
	return m
}

// round32 returns float32(m) as a tile image.
func round32(m *mat.Matrix) *mat.Matrix32 {
	img := mat.NewMatrix32(m.Rows, m.Cols)
	img.RoundFrom(m)
	return img
}

// widen returns the float64 values of m.
func widen(m *mat.Matrix32) *mat.Matrix {
	w := mat.New(m.Rows, m.Cols)
	m.WidenInto(w)
	return w
}

// TestGetrf32Reconstructs factors random tile images at float32 with
// Getrf32R and checks P⁻¹·L·U recovers A at float32 resolution — same pivot
// bookkeeping as the f64 kernel (reconstructLU and Laswp are shared).
func TestGetrf32Reconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range [][2]int{{1, 1}, {5, 3}, {8, 8}, {13, 7}, {40, 40}, {64, 48}} {
		m, n := d[0], d[1]
		a := rand32(rng, m, n)
		a0 := widen(a)
		piv, err := Getrf32R(a)
		if err != nil {
			t.Fatalf("Getrf32R %dx%d: %v", m, n, err)
		}
		back := reconstructLU(widen(a), piv)
		tol := 1e-4 * float64(n+1)
		if diff := mat.MaxDiff(back, a0); diff > tol {
			t.Fatalf("Getrf32R %dx%d: reconstruction off by %g > %g", m, n, diff, tol)
		}
		// Pivot rows must be in range and the factorization in-place.
		for k, p := range piv {
			if p < k || p >= m {
				t.Fatalf("Getrf32R %dx%d: pivot %d at step %d out of range", m, n, p, k)
			}
		}
	}
}

// TestGetrf32MatchesGetrsReplay checks a widened Getrf32R factor solves
// through the unchanged f64 Getrs path — the contract the mixed-precision
// solve relies on (f32 factors, f64 replay).
func TestGetrf32MatchesGetrsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 40
	a := rand32(rng, n, n)
	a0 := widen(a)
	x0 := randMat(rng, n, 2)
	b := mat.New(n, 2)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a0, x0, 0, b)
	piv, err := Getrf32R(a)
	if err != nil {
		t.Fatal(err)
	}
	Getrs(blas.NoTrans, widen(a), piv, b)
	if diff := mat.MaxDiff(b, x0); diff > 1e-3*float64(n) {
		t.Fatalf("Getrs replay of Getrf32R factor: solution off by %g", diff)
	}
}

// TestGeqrt32Reconstructs factors tile images at float32 (unblocked and
// blocked inner paths) and replays the widened factor through the float64
// Unmqr: Q·R must recover A, proving the V/T contract carries across
// precisions.
func TestGeqrt32Reconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range [][2]int{{4, 4}, {13, 7}, {40, 40}, {48, 33}} {
		m, n := d[0], d[1]
		for _, ib := range []int{0, 4} {
			a := rand32(rng, m, n)
			a0 := widen(a)
			tf := mat.NewMatrix32(n, n)
			Geqrt32RIB(a, tf, ib)
			v := widen(a)
			c := upperOf(v)
			Unmqr(blas.NoTrans, v, widen(tf), c)
			tol := 1e-4 * float64(n+1)
			if diff := mat.MaxDiff(c, a0); diff > tol {
				t.Fatalf("Geqrt32RIB %dx%d ib=%d: Q·R off by %g > %g", m, n, ib, diff, tol)
			}
		}
	}
}

// TestTsqrt32Reconstructs factors a triangle-on-square stack at float32,
// replays the widened factor through the float64 Tsmqr, and checks R's
// strictly-lower storage (V data from an earlier factorization) is
// preserved.
func TestTsqrt32Reconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, d := range [][2]int{{5, 5}, {13, 13}, {33, 20}, {40, 40}} {
		n, m := d[0], d[1]
		for _, ib := range []int{0, 4} {
			r := rand32(rng, n, n)
			a := rand32(rng, m, n)
			r0 := widen(r)
			r0u := upperOf(r0)
			rlow := strictLowerOf(r0)
			a0 := widen(a)
			tf := mat.NewMatrix32(n, n)
			Tsqrt32RIB(r, a, tf, ib)
			r1 := widen(r)
			if diff := mat.MaxDiff(strictLowerOf(r1), rlow); diff != 0 {
				t.Fatalf("Tsqrt32RIB n=%d m=%d ib=%d: touched R's strictly lower storage", n, m, ib)
			}
			c1 := upperOf(r1)
			c2 := mat.New(m, n)
			Tsmqr(blas.NoTrans, widen(a), widen(tf), c1, c2)
			tol := 1e-4 * float64(n+m)
			if diff := mat.MaxDiff(c1, r0u); diff > tol {
				t.Fatalf("Tsqrt32RIB n=%d m=%d ib=%d: R block off by %g > %g", n, m, ib, diff, tol)
			}
			if diff := mat.MaxDiff(c2, a0); diff > tol {
				t.Fatalf("Tsqrt32RIB n=%d m=%d ib=%d: A block off by %g > %g", n, m, ib, diff, tol)
			}
		}
	}
}

// TestTtqrt32Reconstructs factors a triangle-on-triangle stack at float32,
// replays the widened factor through the float64 Ttmqr, and checks both
// tiles' strictly-lower storage is preserved.
func TestTtqrt32Reconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 5, 13, 40} {
		for _, ib := range []int{0, 4} {
			r1 := rand32(rng, n, n)
			r2 := rand32(rng, n, n)
			r1w, r2w := widen(r1), widen(r2)
			r1u0, r2u0 := upperOf(r1w), upperOf(r2w)
			r1low, r2low := strictLowerOf(r1w), strictLowerOf(r2w)
			tf := mat.NewMatrix32(n, n)
			Ttqrt32RIB(r1, r2, tf, ib)
			r1w, r2w = widen(r1), widen(r2)
			if mat.MaxDiff(strictLowerOf(r1w), r1low) != 0 || mat.MaxDiff(strictLowerOf(r2w), r2low) != 0 {
				t.Fatalf("Ttqrt32RIB n=%d ib=%d: touched strictly lower storage", n, ib)
			}
			c1 := upperOf(r1w)
			c2 := mat.New(n, n)
			Ttmqr(blas.NoTrans, r2w, widen(tf), c1, c2)
			tol := 1e-4 * float64(2*n)
			if diff := mat.MaxDiff(c1, r1u0); diff > tol {
				t.Fatalf("Ttqrt32RIB n=%d ib=%d: R1 off by %g > %g", n, ib, diff, tol)
			}
			if diff := mat.MaxDiff(c2, r2u0); diff > tol {
				t.Fatalf("Ttqrt32RIB n=%d ib=%d: R2 off by %g > %g", n, ib, diff, tol)
			}
		}
	}
}

// TestApply32MatchesF64 cross-checks the float32 apply kernels (Unmqr32R,
// Tsmqr32R, Ttmqr32R) against their float64 references on identical
// (widened) factors and right-hand sides, in both orientations.
func TestApply32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n, m, k := 24, 33, 9
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		// Unmqr32R on a Geqrt factor.
		a := randMat(rng, m, n)
		tf := mat.New(n, n)
		Geqrt(a, tf)
		v32, t32 := round32(a), round32(tf)
		got := rand32(rng, m, k)
		want := widen(got)
		Unmqr32R(trans, v32, t32, got)
		Unmqr(trans, widen(v32), widen(t32), want)
		if diff := mat.MaxDiff(widen(got), want); diff > 1e-4*float64(m) {
			t.Fatalf("Unmqr32R trans=%v: diverges from f64 by %g", trans, diff)
		}

		// Tsmqr32R on a Tsqrt factor.
		r := randMat(rng, n, n)
		a2 := randMat(rng, m, n)
		tf2 := mat.New(n, n)
		Tsqrt(r, a2, tf2)
		v2, t2 := round32(a2), round32(tf2)
		g1, g2 := rand32(rng, n, k), rand32(rng, m, k)
		w1, w2 := widen(g1), widen(g2)
		Tsmqr32R(trans, v2, t2, g1, g2)
		Tsmqr(trans, widen(v2), widen(t2), w1, w2)
		if d := mat.MaxDiff(widen(g1), w1) + mat.MaxDiff(widen(g2), w2); d > 1e-4*float64(n+m) {
			t.Fatalf("Tsmqr32R trans=%v: diverges from f64 by %g", trans, d)
		}

		// Ttmqr32R on a Ttqrt factor.
		q1, q2 := randMat(rng, n, n), randMat(rng, n, n)
		tf3 := mat.New(n, n)
		Ttqrt(q1, q2, tf3)
		v3, t3 := round32(q2), round32(tf3)
		h1, h2 := rand32(rng, n, k), rand32(rng, n, k)
		u1, u2 := widen(h1), widen(h2)
		Ttmqr32R(trans, v3, t3, h1, h2)
		Ttmqr(trans, widen(v3), widen(t3), u1, u2)
		if d := mat.MaxDiff(widen(h1), u1) + mat.MaxDiff(widen(h2), u2); d > 1e-4*float64(2*n) {
			t.Fatalf("Ttmqr32R trans=%v: diverges from f64 by %g", trans, d)
		}
	}
}

// TestLarfg32Annihilates checks the float32 reflector Larfg32R annihilates
// the tail of its input at float32 resolution.
func TestLarfg32Annihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		alpha := float32(rng.NormFloat64())
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		orig := []float64{float64(alpha)}
		for _, v := range x {
			orig = append(orig, float64(v))
		}
		_, tau32 := Larfg32R(alpha, x)
		tau := float64(tau32)
		v := []float64{1}
		for _, xi := range x {
			v = append(v, float64(xi))
		}
		s := 0.0
		for i := range v {
			s += v[i] * orig[i]
		}
		for i := 1; i < len(orig); i++ {
			if got := orig[i] - tau*s*v[i]; got > 1e-5 || got < -1e-5 {
				t.Fatalf("Larfg32R tail not annihilated: %g at %d", got, i)
			}
		}
	}
}
