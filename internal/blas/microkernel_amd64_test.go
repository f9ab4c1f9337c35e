package blas

import (
	"math"
	"math/rand"
	"testing"
)

// TestSimdLevel1MatchesScalar runs the AVX2 axpy and dot assembly of both
// element types at every length from 0 to 100 and at unaligned offsets, and
// checks them against the scalar loops: axpy to one rounding of each
// element, dot to the reordering bound of its sum, and neither may touch
// memory past the vector's end.
func TestSimdLevel1MatchesScalar(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("host has no AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(61))
	const pad = 8
	for n := 0; n <= 100; n++ {
		for off := 0; off < 4; off++ {
			alpha := rng.NormFloat64()
			x64, y64 := make([]float64, off+n+pad), make([]float64, off+n+pad)
			x32, y32 := make([]float32, off+n+pad), make([]float32, off+n+pad)
			for i := range x64 {
				x64[i], y64[i] = rng.NormFloat64(), rng.NormFloat64()
				x32[i], y32[i] = float32(x64[i]), float32(y64[i])
			}
			want64, want32 := append([]float64(nil), y64...), append([]float32(nil), y32...)
			for i := off; i < off+n; i++ {
				want64[i] += alpha * x64[i]
				want32[i] += float32(alpha) * x32[i]
			}
			axpyFMA(alpha, &x64[off], &y64[off], n)
			axpyFMA32(float32(alpha), &x32[off], &y32[off], n)
			for i := range y64 {
				tol := 0.0
				if i >= off && i < off+n {
					tol = 0x1p-52 * (math.Abs(want64[i]) + math.Abs(alpha*x64[i]))
				}
				if d := math.Abs(y64[i] - want64[i]); d > tol {
					t.Fatalf("axpyFMA n=%d off=%d: y[%d] = %v, scalar %v", n, off, i, y64[i], want64[i])
				}
				tol32 := 0.0
				if i >= off && i < off+n {
					tol32 = 0x1p-23 * (math.Abs(float64(want32[i])) + math.Abs(alpha*float64(x32[i])))
				}
				if d := math.Abs(float64(y32[i] - want32[i])); d > tol32 {
					t.Fatalf("axpyFMA32 n=%d off=%d: y[%d] = %v, scalar %v", n, off, i, y32[i], want32[i])
				}
			}

			var dot64, abs64 float64
			var dot32 float32
			for i := off; i < off+n; i++ {
				dot64 += x64[i] * y64[i]
				dot32 += x32[i] * y32[i]
				abs64 += math.Abs(x64[i] * y64[i])
			}
			if d := math.Abs(dotFMA(&x64[off], &y64[off], n) - dot64); d > 0x1p-52*float64(n)*abs64 {
				t.Fatalf("dotFMA n=%d off=%d: off by %g", n, off, d)
			}
			if d := math.Abs(float64(dotFMA32(&x32[off], &y32[off], n) - dot32)); d > 0x1p-23*float64(n)*abs64 {
				t.Fatalf("dotFMA32 n=%d off=%d: off by %g", n, off, d)
			}
		}
	}
}
