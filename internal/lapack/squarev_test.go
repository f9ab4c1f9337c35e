package lapack

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// squareVOrders are the tile orders the square-V and TTMQR kernel tests
// run at: below, at and past the strip widths, and the production tiles.
var squareVOrders = []int{1, 7, 64, 100, 192, 200}

// denseGeqrtQ forms Q = I − V₁·T·V₁ᵀ of a square Geqrt factor in float64
// by plain loops, from V₁'s strictly lower part and T's upper triangle
// only: the reference the square-V products are checked against.
func denseGeqrtQ(v, t *mat.Matrix) *mat.Matrix {
	n := v.Rows
	v1 := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v1.Set(i, j, v.At(i, j))
		}
		v1.Set(i, i, 1)
	}
	vt := mat.New(n, n) // V₁·T
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l <= j; l++ {
				s += v1.At(i, l) * t.At(l, j)
			}
			vt.Set(i, j, s)
		}
	}
	q := mat.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < n; l++ {
				s += vt.At(i, l) * v1.At(j, l)
			}
			q.Set(i, j, q.At(i, j)-s)
		}
	}
	return q
}

func mul(a, b *mat.Matrix) *mat.Matrix {
	c := mat.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for l := 0; l < a.Cols; l++ {
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Stride+j] += a.At(i, l) * b.At(l, j)
			}
		}
	}
	return c
}

// TestFormY: Geqrt leaves Y = V₁·Tᵀ in t's strictly lower triangle, to a
// few units of roundoff, and T in its upper one, diagonal included, so
// Y's diagonal is T's bit for bit. FormY on the same factor with junk in
// the lower triangle rewrites exactly Geqrt's bits, which is what lets a
// stream serialized before Y existed solve as one written after.
func TestFormY(t *testing.T) {
	t.Run("float64", testFormY[float64])
	t.Run("float32", testFormY[float32])
}

func testFormY[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	u := unitRoundoff[T]()
	for _, n := range squareVOrders {
		a := randT[T](rng, n, n)
		tf := roundTo[T](mat.New(n, n))
		Geqrt(a, tf)
		v, tw := widen(a), widen(tf)
		for i := 0; i < n; i++ {
			for c := 0; c < i; c++ {
				y := tw.At(c, i) // Y[i][c] = Σ_{c ≤ l ≤ i} V₁[i][l]·T[c][l]
				for l := c; l < i; l++ {
					y += v.At(i, l) * tw.At(c, l)
				}
				if d := math.Abs(tw.At(i, c) - y); !(d <= 16*u*float64(n)*(1+math.Abs(y))) {
					t.Fatalf("n=%d: Y[%d][%d] = %g, V₁·Tᵀ gives %g", n, i, c, tw.At(i, c), y)
				}
			}
		}
		again := tf.Clone()
		for i := 0; i < n; i++ {
			for c := 0; c < i; c++ {
				again.Set(i, c, T(rng.NormFloat64()))
			}
		}
		FormY(a, again)
		for i := range again.Data {
			if math.Float64bits(float64(again.Data[i])) != math.Float64bits(float64(tf.Data[i])) {
				t.Fatalf("n=%d: FormY gives %g at %d, Geqrt %g", n, again.Data[i], i, tf.Data[i])
			}
		}
	}
}

// TestSquareVProducts checks the four two-multiply products of a square
// Geqrt factor, Qᵀ·C and Q·C (Unmqr) and C·Q and C·Qᵀ (UnmqrRight), at
// both precisions against the dense Q formed from the widened factor.
func TestSquareVProducts(t *testing.T) {
	t.Run("float64", testSquareVProducts[float64])
	t.Run("float32", testSquareVProducts[float32])
}

func testSquareVProducts[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	u := unitRoundoff[T]()
	for _, n := range squareVOrders {
		a := randT[T](rng, n, n)
		tf := roundTo[T](mat.New(n, n))
		Geqrt(a, tf)
		q := denseGeqrtQ(widen(a), widen(tf))
		k := 1 + rng.Intn(9)
		c, d := randT[T](rng, n, k), randT[T](rng, k, n)
		cw, dw := widen(c), widen(d)
		for _, p := range []struct {
			name string
			run  func() *mat.Dense[T]
			want *mat.Matrix
		}{
			{"Qᵀ·C", func() *mat.Dense[T] { g := c.Clone(); Unmqr(blas.Trans, a, tf, g); return g }, mul(q.T(), cw)},
			{"Q·C", func() *mat.Dense[T] { g := c.Clone(); Unmqr(blas.NoTrans, a, tf, g); return g }, mul(q, cw)},
			{"C·Q", func() *mat.Dense[T] { g := d.Clone(); UnmqrRight(blas.NoTrans, a, tf, g); return g }, mul(dw, q)},
			{"C·Qᵀ", func() *mat.Dense[T] { g := d.Clone(); UnmqrRight(blas.Trans, a, tf, g); return g }, mul(dw, q.T())},
		} {
			got := widen(p.run())
			scale := math.Max(cw.NormMax(), dw.NormMax())
			if diff := mat.MaxDiff(got, p.want); !(diff <= 8*u*float64(n)*scale) {
				t.Fatalf("n=%d k=%d %s: differs from the dense Q by %g (tol %g)", n, k, p.name, diff, 8*u*float64(n)*scale)
			}
		}
	}
}

// unmqrThreeStage is Unmqr's trapezoidal path as a reference: W = VᵀC by
// TRMM and GEMM, W ← op(T)·W, C −= V·W.
func unmqrThreeStage(trans blas.Transpose, v, t, c *mat.Matrix) {
	m, n, k := v.Rows, v.Cols, c.Cols
	v1, c1 := v.View(0, 0, n, n), c.View(0, 0, n, k)
	w := c1.Clone()
	blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, v.View(n, 0, m-n, n), c.View(n, 0, m-n, k), 1, w)
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, 1, t.View(0, 0, n, n), w)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v.View(n, 0, m-n, n), w, 1, c.View(n, 0, m-n, k))
	blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	subRows(c1, w)
}

// TestUnmqrTrapezoidalKeepsBits: a trapezoidal V (m > n) keeps the
// three-stage path with T, bit for bit.
func TestUnmqrTrapezoidalKeepsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, d := range [][3]int{{8, 3, 2}, {40, 33, 7}, {200, 72, 33}, {250, 192, 192}} {
		m, n, k := d[0], d[1], d[2]
		v := randMat(rng, m, n)
		tf := mat.New(n, n)
		Geqrt(v, tf)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			c := randMat(rng, m, k)
			want := c.Clone()
			unmqrThreeStage(trans, v, tf, want)
			Unmqr(trans, v, tf, c)
			if !mat.Equal(c, want) {
				t.Fatalf("m=%d n=%d k=%d trans=%v: Unmqr moved the trapezoidal path's bits", m, n, k, trans)
			}
		}
	}
}

// TestTtmqrStripsMatchFullT: Ttmqr by ttmqrStrip-wide strips agrees with
// the full-T form (one strip as wide as the tile) in both transposes, at
// both precisions, at orders that are not a multiple of the strip width.
func TestTtmqrStripsMatchFullT(t *testing.T) {
	t.Run("float64", testTtmqrStripsMatchFullT[float64])
	t.Run("float32", testTtmqrStripsMatchFullT[float32])
}

func testTtmqrStripsMatchFullT[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	u := unitRoundoff[T]()
	for _, n := range []int{1, 7, ttmqrStrip + 2, 100, 130, 192, 200} {
		r1, r2 := randT[T](rng, n, n), randT[T](rng, n, n)
		tf := roundTo[T](mat.New(n, n))
		Ttqrt(r1, r2, tf)
		k := 1 + rng.Intn(9)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			c1, c2 := randT[T](rng, n, k), randT[T](rng, n, k)
			w1, w2 := c1.Clone(), c2.Clone()
			Ttmqr(trans, r2, tf, c1, c2)
			ttStrip(trans, r2, tf, 0, n, w1, w2)
			scale := math.Max(widen(w1).NormMax(), widen(w2).NormMax())
			d := math.Max(mat.MaxDiff(widen(c1), widen(w1)), mat.MaxDiff(widen(c2), widen(w2)))
			if !(d <= 8*u*float64(n)*scale) {
				t.Fatalf("n=%d k=%d trans=%v: strips differ from the full T by %g (tol %g)", n, k, trans, d, 8*u*float64(n)*scale)
			}
		}
	}
}
