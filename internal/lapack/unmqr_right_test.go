package lapack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// TestUnmqrRightMatchesTransposedLeft: c·op(Q) equals the transpose of
// Unmqr's op(Q)ᵀ·cᵀ, from small shapes up to the production tile (192×192,
// k = 192, the square V of VarB2's Eliminate step) and a tall V (m > n)
// past one inner block.
func TestUnmqrRightMatchesTransposedLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{4, 4, 3}, {8, 8, 8}, {10, 6, 5}, {1, 1, 2}, {192, 192, 192}, {200, 72, 33}} {
		m, n, k := dims[0], dims[1], dims[2]
		v := randMat(rng, m, n)
		tt := mat.New(n, n)
		Geqrt(v, tt)
		c := randMat(rng, k, m)
		// c·Q must equal (Qᵀ·cᵀ)ᵀ.
		want := c.T()
		Unmqr(blas.Trans, v, tt, want)
		want = want.T()
		got := c.Clone()
		UnmqrRight(blas.NoTrans, v, tt, got)
		if d := mat.MaxDiff(got, want); d > 1e-11*float64(m) {
			t.Fatalf("dims %v: c·Q differs from (Qᵀcᵀ)ᵀ by %g", dims, d)
		}
		// And the transposed application.
		want2 := c.T()
		Unmqr(blas.NoTrans, v, tt, want2)
		want2 = want2.T()
		got2 := c.Clone()
		UnmqrRight(blas.Trans, v, tt, got2)
		if d := mat.MaxDiff(got2, want2); d > 1e-11*float64(m) {
			t.Fatalf("dims %v: c·Qᵀ differs from (Q·cᵀ)ᵀ by %g", dims, d)
		}
	}
}

func TestUnmqrRightRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(10)
		n := 1 + rng.Intn(m)
		v := randMat(rng, m, n)
		tt := mat.New(n, n)
		Geqrt(v, tt)
		c0 := randMat(rng, 1+rng.Intn(6), m)
		c := c0.Clone()
		UnmqrRight(blas.Trans, v, tt, c)
		UnmqrRight(blas.NoTrans, v, tt, c)
		return mat.MaxDiff(c, c0) < 1e-10*float64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestUnmqrRightInverse verifies the (B2) Eliminate identity:
// (A·R⁻¹)·Qᵀ == A·(QR)⁻¹.
func TestUnmqrRightInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 8
	akk := randMat(rng, n, n)
	qr := akk.Clone()
	tt := mat.New(n, n)
	Geqrt(qr, tt)
	a := randMat(rng, 5, n)
	// Route 1: X = A·R⁻¹·Qᵀ.
	x1 := a.Clone()
	blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, qr, x1)
	UnmqrRight(blas.Trans, qr, tt, x1)
	// Route 2: X·Akk = A via dense inverse.
	inv, err := Inverse(akk)
	if err != nil {
		t.Fatal(err)
	}
	x2 := mat.New(5, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, a, inv, 0, x2)
	if d := mat.MaxDiff(x1, x2); d > 1e-9*(1+inv.NormMax()) {
		t.Fatalf("B2 eliminate identity violated: %g", d)
	}
}
