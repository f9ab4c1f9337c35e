package lapack

import (
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Cross-precision contracts of the mixed-precision path: float32 factors
// replay through the float64 kernels, and the float32 apply kernels track
// their float64 instantiations.

// rand32 returns a random r×c float32 tile image.
func rand32(rng *rand.Rand, r, c int) *mat.Matrix32 { return randT[float32](rng, r, c) }

// TestGetrf32MatchesGetrsReplay checks a widened float32 Getrf factor solves
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
	piv, err := Getrf(a)
	if err != nil {
		t.Fatal(err)
	}
	Getrs(blas.NoTrans, widen(a), piv, b)
	if diff := mat.MaxDiff(b, x0); diff > 1e-3*float64(n) {
		t.Fatalf("Getrs replay of a float32 Getrf factor: solution off by %g", diff)
	}
}

// TestApply32MatchesF64 cross-checks the float32 apply kernels (Unmqr,
// Tsmqr, Ttmqr on float32 images) against their float64 instantiations on
// identical (widened) factors and right-hand sides, in both orientations.
func TestApply32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n, m, k := 24, 33, 9
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		// Unmqr at float32 on a Geqrt factor.
		a := randMat(rng, m, n)
		tf := mat.New(n, n)
		Geqrt(a, tf)
		v32, t32 := roundTo[float32](a), roundTo[float32](tf)
		got := rand32(rng, m, k)
		want := widen(got)
		Unmqr(trans, v32, t32, got)
		Unmqr(trans, widen(v32), widen(t32), want)
		if diff := mat.MaxDiff(widen(got), want); diff > 1e-4*float64(m) {
			t.Fatalf("Unmqr float32 trans=%v: diverges from f64 by %g", trans, diff)
		}

		// Tsmqr at float32 on a Tsqrt factor.
		r := randMat(rng, n, n)
		a2 := randMat(rng, m, n)
		tf2 := mat.New(n, n)
		Tsqrt(r, a2, tf2)
		v2, t2 := roundTo[float32](a2), roundTo[float32](tf2)
		g1, g2 := rand32(rng, n, k), rand32(rng, m, k)
		w1, w2 := widen(g1), widen(g2)
		Tsmqr(trans, v2, t2, g1, g2)
		Tsmqr(trans, widen(v2), widen(t2), w1, w2)
		if d := mat.MaxDiff(widen(g1), w1) + mat.MaxDiff(widen(g2), w2); d > 1e-4*float64(n+m) {
			t.Fatalf("Tsmqr float32 trans=%v: diverges from f64 by %g", trans, d)
		}

		// Ttmqr at float32 on a Ttqrt factor.
		q1, q2 := randMat(rng, n, n), randMat(rng, n, n)
		tf3 := mat.New(n, n)
		Ttqrt(q1, q2, tf3)
		v3, t3 := roundTo[float32](q2), roundTo[float32](tf3)
		h1, h2 := rand32(rng, n, k), rand32(rng, n, k)
		u1, u2 := widen(h1), widen(h2)
		Ttmqr(trans, v3, t3, h1, h2)
		Ttmqr(trans, widen(v3), widen(t3), u1, u2)
		if d := mat.MaxDiff(widen(h1), u1) + mat.MaxDiff(widen(h2), u2); d > 1e-4*float64(2*n) {
			t.Fatalf("Ttmqr float32 trans=%v: diverges from f64 by %g", trans, d)
		}
	}
}
