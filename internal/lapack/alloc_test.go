package lapack

import (
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// TestQRKernelsZeroAlloc: the six QR tile kernels allocate nothing in
// steady state, at a small and a production tile order and at either
// precision. Their column-major strips, W blocks and packed panels come
// from the workspace arena, and the matrix views they pass to blas stay on
// the stack.
func TestQRKernelsZeroAlloc(t *testing.T) {
	t.Run("float64", testQRKernelsZeroAlloc[float64])
	t.Run("float32", testQRKernelsZeroAlloc[float32])
}

func testQRKernelsZeroAlloc[T mat.Float](t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(31))
	for _, nb := range []int{40, 192} {
		a0, b0 := randT[T](rng, nb, nb), randT[T](rng, nb, nb)
		a, b, tf := a0.Clone(), b0.Clone(), randT[T](rng, nb, nb)
		c1, c2 := randT[T](rng, nb, nb), randT[T](rng, nb, nb)
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"GEQRT", func() { a.CopyFrom(a0); Geqrt(a, tf) }},
			{"UNMQR", func() { Unmqr(blas.Trans, a, tf, c1) }},
			{"TSQRT", func() { a.CopyFrom(a0); b.CopyFrom(b0); Tsqrt(a, b, tf) }},
			{"TSMQR", func() { Tsmqr(blas.Trans, b, tf, c1, c2) }},
			{"TTQRT", func() { a.CopyFrom(a0); b.CopyFrom(b0); Ttqrt(a, b, tf) }},
			{"TTMQR", func() { Ttmqr(blas.Trans, b, tf, c1, c2) }},
		} {
			k.run()
			if allocs := testing.AllocsPerRun(5, k.run); allocs != 0 {
				t.Errorf("%s nb=%d: %v allocs/op, want 0", k.name, nb, allocs)
			}
		}
	}
}
