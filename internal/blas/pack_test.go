package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"luqr/internal/mat"
)

// withKernels runs f on the kernel tables k64 and k32, restoring the
// init-time selection afterwards.
func withKernels(k64 kernels[float64], k32 kernels[float32], f func()) {
	h64, h32 := kernels64, kernels32
	kernels64, kernels32 = k64, k32
	defer func() { kernels64, kernels32 = h64, h32 }()
	f()
}

// withPortableKernels runs f on the portable kernel tables of both element
// types — the 4×4 micro-kernel with its narrow companions and the scalar
// level-1 loops. It lets the suite exercise the portable arithmetic on
// hosts where init picked the assembly kernels (the reverse needs no hook:
// the portable kernels are always available).
func withPortableKernels(f func()) {
	withKernels(portableKernels[float64](), portableKernels[float32](), f)
}

// withAVX2Kernels runs f on the AVX2 tables where init picked the AVX-512
// ones, and reports whether it did; elsewhere it does nothing.
func withAVX2Kernels(f func()) bool {
	k64, k32, ok := avx2Tables()
	if ok {
		withKernels(k64, k32, f)
	}
	return ok
}

// gemmNR is the float64 table's micro-tile width, the width the narrow-path
// pins sweep past. forEachKernel keeps it in step with the table under test.
var gemmNR int

// forEachKernel runs check as the subtests "hostKernel" (the init-time
// selection), "avx2Kernel" where init picked the AVX-512 tables, and
// "portableKernel".
func forEachKernel(t *testing.T, check func(t *testing.T)) {
	run := func(t *testing.T) {
		gemmNR = kernels64.nr
		check(t)
	}
	t.Run("hostKernel", run)
	if k64, k32, ok := avx2Tables(); ok {
		t.Run("avx2Kernel", func(t *testing.T) { withKernels(k64, k32, func() { run(t) }) })
	}
	t.Run("portableKernel", func(t *testing.T) { withPortableKernels(func() { run(t) }) })
}

// viewOf embeds a fresh random r×c matrix inside a larger parent so that
// Stride != Cols, returning the interior view.
func viewOf(rng *rand.Rand, r, c int) *mat.Matrix {
	parent := randMat(rng, r+3, c+5)
	return parent.View(1, 2, r, c)
}

// TestGemmPackedTable and TestGemm32Table cross-check the packed Gemm at
// each precision against the naive product of the widened operands over all
// four transpose variants, odd and rectangular shapes (including micro-tile
// fringes and cache-block boundaries), the alpha/beta special cases, and
// strided submatrix views, under both the host-selected kernel and the
// forced portable kernel.
func TestGemmPackedTable(t *testing.T) { forEachKernel(t, testGemmTable[float64]) }

func TestGemm32Table(t *testing.T) { forEachKernel(t, testGemmTable[float32]) }

func testGemmTable[T mat.Float](t *testing.T) {
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1},
		{3, 5, 7},
		{7, 3, 5},
		{5, 7, 3},
		{4, 4, 4},
		{6, 8, 6},    // exact micro-tiles for both float64 geometries
		{6, 16, 6},   // exact micro-tile for the AVX2 float32 geometry
		{39, 41, 40}, // nb±1 around the default tile order
		{41, 39, 41},
		{13, 9, 259}, // k crosses the KC=256 blocking boundary
		{133, 9, 17}, // m crosses the MC=132 blocking boundary
		{9, 513, 5},  // n crosses the NC=512 blocking boundary
	}
	alphas := []T{0, 1, -0.5}
	betas := []T{0, 1, 2}

	check := func(t *testing.T, useViews bool) {
		rng := rand.New(rand.NewSource(11))
		for _, d := range shapes {
			m, n, k := d[0], d[1], d[2]
			for _, ta := range []Transpose{NoTrans, Trans} {
				for _, tb := range []Transpose{NoTrans, Trans} {
					for _, alpha := range alphas {
						for _, beta := range betas {
							ar, ac := m, k
							if ta == Trans {
								ar, ac = k, m
							}
							br, bc := k, n
							if tb == Trans {
								br, bc = n, k
							}
							var a, b, got *mat.Dense[T]
							if useViews {
								a, b, got = viewOfT[T](rng, ar, ac), viewOfT[T](rng, br, bc), viewOfT[T](rng, m, n)
							} else {
								a, b, got = randT[T](rng, ar, ac), randT[T](rng, br, bc), randT[T](rng, m, n)
							}
							want := widen(got)
							naiveGemm(ta, tb, float64(alpha), widen(a), widen(b), float64(beta), want)
							Gemm(ta, tb, alpha, a, b, beta, got)
							tol := 256 * unitRoundoff[T]() * float64(k+2)
							if diff := mat.MaxDiff(widen(got), want); diff > tol {
								t.Fatalf("Gemm m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g views=%v: maxdiff %g > %g",
									m, n, k, ta, tb, alpha, beta, useViews, diff, tol)
							}
						}
					}
				}
			}
		}
	}
	check(t, false)
	check(t, true)
}

// TestPackAMatchesLayout pins packA, whose full micro-panels go through
// the table's packPanel entry, to the scalar body's layout and arithmetic:
// element (ir+i, p) of the block at buf[ir*kc + p*mr + i] is alpha times
// op(A)'s element by one IEEE product, and a fringe panel is zero below
// its rows. It compares bits, so NaN payloads and signed zeros count, at
// each precision on every kernel table, for both transposes, alpha ∈
// {1, −1, 0, −0.75}, entries that include ±0, ±Inf, NaN payloads of both
// signs and kinds and subnormals, every kc from 0 to 40 and 255–257 (each
// tail of the assembly's 8- and 16-column blocks), block heights from one
// element to past two micro-panels, and A as a strided view.
func TestPackAMatchesLayout(t *testing.T) {
	forEachType(t, testPackAMatchesLayout[float64], testPackAMatchesLayout[float32])
}

func testPackAMatchesLayout[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kt := table[T]()
	mr := kt.mr
	kcs := []int{255, 256, 257}
	for kc := 0; kc <= 40; kc++ {
		kcs = append(kcs, kc)
	}
	for _, transA := range []Transpose{NoTrans, Trans} {
		for _, mc := range []int{1, mr - 1, mr, mr + 1, 2*mr + 1} {
			for _, kc := range kcs {
				const i0, p0 = 2, 3
				ar, ac := i0+mc+1, p0+kc+2
				if transA == Trans {
					ar, ac = ac, ar
				}
				a := viewOfT[T](rng, ar, ac)
				specialFill(rng, a)
				for _, alpha := range []T{1, -1, 0, -0.75} {
					buf := make([]T, roundUp(mc, mr)*kc)
					for i := range buf {
						buf[i] = fromBits[T](0x7ff4dead7fa0beef) // a NaN neither side writes
					}
					packA(kt, buf, a, transA, alpha, i0, p0, mc, kc)
					for ir := 0; ir < mc; ir += mr {
						for p := 0; p < kc; p++ {
							for i := 0; i < mr; i++ {
								var want T
								if r := ir + i; r < mc {
									if transA == NoTrans {
										want = alpha * a.At(i0+r, p0+p)
									} else {
										want = alpha * a.At(p0+p, i0+r)
									}
								}
								if got := buf[ir*kc+p*mr+i]; bitsOf(got) != bitsOf(want) {
									t.Fatalf("transA=%v mc=%d kc=%d alpha=%v: panel %d (%d, %d) = %v (%#x), want %v (%#x)",
										transA, mc, kc, alpha, ir/mr, i, p, got, bitsOf(got), want, bitsOf(want))
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPackPanel packs one full micro-panel through every kernel table's
// packPanel entry, at both precisions and both transposes, from a fuzzed
// shape — kc, the row stride's slack past the panel, the panel's first row
// i and column p0 — alpha and element bits, and requires the scalar body's
// layout and bits. It also runs every table's Above32 over the float32
// operand, from a fuzzed offset, against the scalar predicate with a fuzzed
// ceiling. A NaN alpha is skipped: no caller passes one, and which of two
// NaN operands' payload a product keeps is the compiler's choice in the Go
// body.
func FuzzPackPanel(f *testing.F) {
	f.Add(uint16(17), uint8(3), uint8(1), uint8(2), math.Float64bits(-0.75), uint64(0x7ff8000000000abc), uint64(1), uint32(0x4cbebc20))
	f.Add(uint16(257), uint8(0), uint8(0), uint8(0), math.Float64bits(1), uint64(0xfff0000000000000), uint64(0x807fffff), uint32(0x7f800000))
	f.Add(uint16(0), uint8(7), uint8(5), uint8(3), math.Float64bits(0), uint64(0x7ff0000000000001), uint64(0xffc00123), uint32(0))
	f.Add(uint16(40), uint8(1), uint8(2), uint8(7), math.Float64bits(-1), uint64(1<<63), uint64(0x7f7fffff), uint32(0x7f7fffff))
	f.Fuzz(func(t *testing.T, kc16 uint16, slack, i8, p8 uint8, alphaBits, e1, e2 uint64, ceil uint32) {
		if math.IsNaN(math.Float64frombits(alphaBits)) {
			t.Skip("NaN alpha")
		}
		kc, s, i, p0 := int(kc16%300), int(slack%8), int(i8%8), int(p8%8)
		fuzzPackPanel[float64](t, kc, s, i, p0, alphaBits, e1, e2, ceil)
		fuzzPackPanel[float32](t, kc, s, i, p0, alphaBits, e1, e2, ceil)
	})
}

func fuzzPackPanel[T mat.Float](t *testing.T, kc, slack, i, p0 int, alphaBits, e1, e2 uint64, ceil uint32) {
	alpha := T(math.Float64frombits(alphaBits))
	rng := rand.New(rand.NewSource(int64(e1 ^ e2<<1 ^ uint64(kc))))
	for _, transA := range []Transpose{NoTrans, Trans} {
		eachTable(func() {
			kt := table[T]()
			mr := kt.mr
			rows, lda := i+mr, p0+kc+slack
			if transA == Trans {
				rows, lda = p0+kc, i+mr+slack
			}
			a := make([]T, rows*lda)
			for k := range a {
				switch rng.Intn(4) {
				case 0:
					a[k] = fromBits[T](e1)
				case 1:
					a[k] = fromBits[T](e2)
				case 2:
					a[k] = fromBits[T](specials[rng.Intn(len(specials))][1-int(unsafe.Sizeof(a[k])/8)])
				default:
					a[k] = T(rng.NormFloat64())
				}
			}
			dst := make([]T, mr*kc)
			kt.packPanel(dst, a, lda, transA, alpha, i, p0, kc)
			for p := 0; p < kc; p++ {
				for r := 0; r < mr; r++ {
					at := (i+r)*lda + p0 + p
					if transA == Trans {
						at = (p0+p)*lda + i + r
					}
					want := alpha * a[at]
					if got := dst[p*mr+r]; bitsOf(got) != bitsOf(want) {
						t.Fatalf("%s transA=%v kc=%d lda=%d i=%d p0=%d alpha=%v: (%d, %d) = %#x, want %#x",
							kt.id, transA, kc, lda, i, p0, alpha, r, p, bitsOf(got), bitsOf(want))
					}
				}
			}
			if x, ok := any(a).([]float32); ok {
				x = x[min(len(x), slack):]
				if got, want := Above32(x, ceil), above32Generic(x, ceil); got != want {
					t.Fatalf("%s Above32(ceil %#x) over %d elements: %v, scalar %v", kt.id, ceil, len(x), got, want)
				}
			}
		})
	}
}

// eachTable runs f on the host kernel tables, on the AVX2 ones where the
// host's are AVX-512, and on the portable ones.
func eachTable(f func()) {
	f()
	withAVX2Kernels(f)
	withPortableKernels(f)
}

// TestPackBMatchesLoop pins packB, whose full op(B) = B micro-panels go
// through the table's packRows entry where it has one, to packB's own loops
// (the table with the entry removed), bit for bit and with every element of
// the packed block written: full and fringe panels, both transposes, nc
// not a multiple of NR, kc across one row to a full KC block, B as a
// strided view holding special values.
func TestPackBMatchesLoop(t *testing.T) {
	forEachType(t, testPackBMatchesLoop[float64], testPackBMatchesLoop[float32])
}

func testPackBMatchesLoop[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kt := table[T]()
	loops := *kt
	loops.packRows = nil
	nr := kt.nr
	for _, transB := range []Transpose{NoTrans, Trans} {
		for _, nc := range []int{1, nr - 1, nr, nr + 1, 2*nr + 3, 3 * nr} {
			for _, kc := range []int{1, 2, 7, 40, 256} {
				const j0, p0 = 3, 2
				br, bc := p0+kc+1, j0+nc+2
				if transB == Trans {
					br, bc = bc, br
				}
				b := viewOfT[T](rng, br, bc)
				specialFill(rng, b)
				got, want := make([]T, roundUp(nc, nr)*kc), make([]T, roundUp(nc, nr)*kc)
				for i := range got {
					got[i] = fromBits[T](0x7ff4dead7fa0beef)
					want[i] = fromBits[T](0x7ff4dead7fa0beef)
				}
				packB(kt, got, b, transB, j0, p0, kc, nc)
				packB(&loops, want, b, transB, j0, p0, kc, nc)
				for i := range got {
					if bitsOf(got[i]) != bitsOf(want[i]) {
						t.Fatalf("transB=%v nc=%d kc=%d: element %d = %v (%#x), loops wrote %v (%#x)",
							transB, nc, kc, i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
					}
				}
			}
		}
	}
}

// TestAbove32MatchesScalar pins Above32, through the float32 table's scan
// entry where it has one, to the scalar predicate: any element whose
// sign-cleared bits exceed the ceiling. Each value — the ceiling and its
// float32 neighbours, ±Inf, NaNs of both signs, ±0 and subnormals — sits
// at every position of a slice of every length from 1 to 40 and of 1000,
// among elements below the ceiling, and at offsets into a longer array;
// empty slices and slices of only small values must report false.
func TestAbove32MatchesScalar(t *testing.T) {
	forEachKernel(t, testAbove32MatchesScalar)
}

func testAbove32MatchesScalar(t *testing.T) {
	inf := float32(math.Inf(1))
	// The ceilings are float32 bit patterns from 0 through +Inf, and the
	// patterns past every sign-cleared one: 0x7fffffff, 1<<31, 0xffffffff.
	for _, ceil := range []uint32{0, 1, 0x3f800000, 0x4cbebc20, 0x7f7fffff, 0x7f800000, 0x7fffffff, 1 << 31, 0xffffffff} {
		c := math.Float32frombits(ceil)
		vals := []float32{
			c, math.Float32frombits(ceil - 1), math.Float32frombits(ceil + 1), 0, 0x1p-149, 0x1p-127,
			inf, math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800001), math.MaxFloat32,
		}
		vals = append(vals, negate32(vals)...)
		lens := []int{1000}
		for n := 1; n <= 40; n++ {
			lens = append(lens, n)
		}
		back := make([]float32, 1003)
		for _, n := range lens {
			for off := 0; off < 3; off += 2 {
				x := back[off : off+n]
				for i := range back {
					back[i] = 0
				}
				if Above32(x[:0], ceil) || Above32(x, ceil) != above32Generic(x, ceil) {
					t.Fatalf("ceil %g n=%d: zeros disagree", c, n)
				}
				for _, v := range vals {
					for k := 0; k < n; k += max(1, n/64) {
						x[k] = v
						if got, want := Above32(x, ceil), above32Generic(x, ceil); got != want {
							t.Fatalf("ceil %g (%#x) n=%d off=%d: %g (%#x) at %d: Above32 %v, scalar %v",
								c, ceil, n, off, v, math.Float32bits(v), k, got, want)
						}
						x[k] = 0
					}
				}
				// Elements past the slice are never read.
				back[off+n] = inf
				if got, want := Above32(x, ceil), above32Generic(x, ceil); got != want {
					t.Fatalf("ceil %g n=%d off=%d: reads past the slice", c, n, off)
				}
			}
		}
	}
}

func negate32(vs []float32) []float32 {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = math.Float32frombits(math.Float32bits(v) ^ 1<<31)
	}
	return out
}

// specials are bit patterns specialFill writes, as float64 and float32:
// ±0, ±Inf, quiet and signalling NaNs of both signs with payloads, the
// smallest and largest subnormals and the largest finite value.
var specials = [][2]uint64{
	{0, 0}, {1 << 63, 1 << 31},
	{0x7ff0000000000000, 0x7f800000}, {0xfff0000000000000, 0xff800000},
	{0x7ff8000000000abc, 0x7fc00abc}, {0xfff8000000000123, 0xffc00123},
	{0x7ff0000000000001, 0x7f800001}, {0xfff00000000dead0, 0xff80dead},
	{1, 1}, {0x800fffffffffffff, 0x807fffff}, {0x7fefffffffffffff, 0x7f7fffff},
}

// specialFill overwrites about a third of m's elements with specials.
func specialFill[T mat.Float](rng *rand.Rand, m *mat.Dense[T]) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Intn(3) == 0 {
				sp := specials[rng.Intn(len(specials))]
				if unsafe.Sizeof(row[j]) == 4 {
					row[j] = fromBits[T](sp[1])
				} else {
					row[j] = fromBits[T](sp[0])
				}
			}
		}
	}
}

// fromBits returns the T whose bits are b (the low 32 bits for float32);
// bitsOf returns v's bits. Neither converts between widths, which would
// quiet a signalling NaN.
func fromBits[T mat.Float](b uint64) T {
	var v T
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) = uint32(b)
	} else {
		*(*uint64)(unsafe.Pointer(&v)) = b
	}
	return v
}

func bitsOf[T mat.Float](v T) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(*(*uint32)(unsafe.Pointer(&v)))
	}
	return *(*uint64)(unsafe.Pointer(&v))
}

// TestTrsmOddShapesAndViews covers Trsm on odd orders, rectangular B, alpha
// scaling, and strided views for every side/uplo/trans/diag combination.
func TestTrsmOddShapesAndViews(t *testing.T) {
	forEachType(t, testTrsmOddShapesAndViews[float64], testTrsmOddShapesAndViews[float32])
}

func testTrsmOddShapesAndViews[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 7, 13} {
		for _, w := range []int{1, 5} {
			for _, alpha := range []T{1, -0.5, 2} {
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
								// op(T)·X (resp. X·op(T)) must equal alpha·B.
								x := widen(b)
								back := applyTri(side, uplo, trans, diag, widen(tm), x)
								for i := range b0.Data {
									b0.Data[i] *= float64(alpha)
								}
								tol := 1024 * unitRoundoff[T]() * float64(n) * max(1, x.NormMax())
								if d := mat.MaxDiff(back, b0); d > tol {
									t.Fatalf("Trsm n=%d w=%d alpha=%g side=%v uplo=%v trans=%v diag=%v residual %g",
										n, w, alpha, side, uplo, trans, diag, d)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmZeroAlloc and TestGemm32ZeroAlloc assert the steady-state
// zero-allocation contract of the packed path at each precision: after
// warm-up, repeated Gemm calls must not touch the heap (pack buffers come
// from the mat workspace arena).
func TestGemmZeroAlloc(t *testing.T) { forEachKernel(t, testGemmZeroAlloc[float64]) }

func TestGemm32ZeroAlloc(t *testing.T) { forEachKernel(t, testGemmZeroAlloc[float32]) }

func testGemmZeroAlloc[T mat.Float](t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(13))
	for _, nb := range []int{40, 96, 128} {
		a, b, c := randT[T](rng, nb, nb), randT[T](rng, nb, nb), randT[T](rng, nb, nb)
		Gemm(NoTrans, NoTrans, -1, a, b, 1, c) // warm the pools
		allocs := testing.AllocsPerRun(10, func() {
			Gemm(NoTrans, NoTrans, -1, a, b, 1, c)
		})
		if allocs != 0 {
			t.Errorf("Gemm nb=%d: %v allocs/op, want 0", nb, allocs)
		}
	}
}

// applyTri wrapping can mask shape errors silently; keep one explicit
// sanity anchor so the table test itself is tested.
func TestGemmPackedAnchor(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := mat.FromSlice(2, 2, []float64{5, 6, 7, 8})
	c := mat.New(2, 2)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("anchor: got %v want %v", c.Data, want)
		}
	}
}

func BenchmarkGemmPacked(b *testing.B) {
	for _, nb := range []int{40, 128, 256} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x, y, c := randMat(rng, nb, nb), randMat(rng, nb, nb), randMat(rng, nb, nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(NoTrans, NoTrans, -1, x, y, 1, c)
			}
			b.StopTimer()
			gf := 2 * float64(nb) * float64(nb) * float64(nb) / 1e9
			b.ReportMetric(gf*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

// BenchmarkPack times packA and packB of a 192×192 block at both
// precisions and transposes, hot in cache, on the host table ("table") and
// on the host table with the Go bodies in place of its packing entries
// ("go"): packPanel6 (or packPanel4) and packB's row loop.
func BenchmarkPack(b *testing.B) {
	b.Run("float64", benchPack[float64])
	b.Run("float32", benchPack[float32])
}

func benchPack[T mat.Float](b *testing.B) {
	const nb = 192
	rng := rand.New(rand.NewSource(16))
	a := randT[T](rng, nb, nb)
	kt := table[T]()
	goBodies := *kt
	goBodies.packPanel, goBodies.packRows = packPanel6[T], nil
	if kt.mr == 4 {
		goBodies.packPanel = packPanel4[T]
	}
	buf := make([]T, roundUp(nb, max(kt.mr, kt.nr))*nb)
	for _, v := range []struct {
		name string
		kt   *kernels[T]
	}{{"table", kt}, {"go", &goBodies}} {
		for _, tr := range []Transpose{NoTrans, Trans} {
			b.Run(fmt.Sprintf("packA/trans=%v/%s", tr, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					packA(v.kt, buf, a, tr, -1, 0, 0, nb, nb)
				}
			})
		}
		b.Run("packB/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packB(v.kt, buf, a, NoTrans, 0, 0, nb, nb)
			}
		})
	}
}
