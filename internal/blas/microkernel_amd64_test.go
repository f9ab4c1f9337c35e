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
	if hostKernelID() == "portable" {
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

// TestHostKernelTable pins init's selection to the CPU features, read here
// bit by bit: the AVX-512 tables exactly where CPUID reports AVX-512F (with
// AVX2 and FMA) and XCR0 shows the OS saving the opmask and ZMM state; else
// the AVX2 tables where CPUID reports AVX2 and FMA and XCR0 shows YMM state
// saved; else the portable ones. It logs the table, so a CI run names the
// kernels its tests covered.
func TestHostKernelTable(t *testing.T) {
	bit := func(reg uint32, i uint) bool { return reg&(1<<i) != 0 }
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf, _, _, _ := cpuidLeaf(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ = cpuidLeaf(1, 0)
		_, ebx7, _, _ = cpuidLeaf(7, 0)
	}
	if bit(ecx1, 27) { // OSXSAVE: XGETBV is available
		xcr0, _ = xgetbv0()
	}
	avx2 := bit(ecx1, 12) && bit(ecx1, 28) && bit(ebx7, 5) && bit(xcr0, 1) && bit(xcr0, 2)
	avx512 := avx2 && bit(ebx7, 16) && bit(xcr0, 5) && bit(xcr0, 6) && bit(xcr0, 7)
	want, nr64, nr32 := "portable", 4, 4
	switch {
	case avx512:
		want, nr64, nr32 = "avx512", 16, 32
	case avx2:
		want, nr64, nr32 = "avx2", 8, 16
	}
	t.Logf("kernel table: %s (float64 %d×%d, float32 %d×%d micro-tiles); CPUID.1:ECX=%#x CPUID.7:EBX=%#x XCR0=%#x",
		KernelID[float64](), kernels64.mr, kernels64.nr, kernels32.mr, kernels32.nr, ecx1, ebx7, xcr0)
	if got := KernelID[float64](); got != want {
		t.Fatalf("float64 table %q, want %q", got, want)
	}
	if got := KernelID[float32](); got != want {
		t.Fatalf("float32 table %q, want %q", got, want)
	}
	if kernels64.nr != nr64 || kernels32.nr != nr32 {
		t.Fatalf("micro-tile widths %d (float64), %d (float32); the %s tables have %d, %d",
			kernels64.nr, kernels32.nr, want, nr64, nr32)
	}
}

// avx2Tables returns the AVX2 kernel tables and whether they differ from
// the init-time selection, which they do where init picked AVX-512: there
// the suite runs them as well, since every host without AVX-512 runs them.
func avx2Tables() (kernels[float64], kernels[float32], bool) {
	k64, k32 := avx2Kernels()
	return k64, k32, kernels64.id == "avx512"
}
