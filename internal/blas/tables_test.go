package blas_test

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/lapack"
	"luqr/internal/mat"
)

// TestLapackKernelsAgreeAcrossTables runs every lapack tile kernel at both
// precisions under the host kernel tables and under each other table the
// host runs — the portable ones, and the AVX2 ones where init picked
// AVX-512 — and requires the results to agree at the type's resolution.
// lapack has no per-type code of its own, so this puts its kernels, which
// lapack's tests check on the host tables, under the other tables too.
func TestLapackKernelsAgreeAcrossTables(t *testing.T) {
	t.Run("float64", checkLapackAcrossTables[float64])
	t.Run("float32", checkLapackAcrossTables[float32])
}

func checkLapackAcrossTables[T mat.Float](t *testing.T) {
	const n, ib = 40, 8
	host, hostPiv := lapackOutputs[T](n, ib)
	compare := func(t *testing.T, other []*mat.Dense[T], otherPiv []int) {
		for k := range hostPiv {
			if hostPiv[k] != otherPiv[k] {
				t.Fatalf("Getrf pivot %d: host %d, other table %d", k, hostPiv[k], otherPiv[k])
			}
		}
		u := 0x1p-53
		if _, ok := any(T(0)).(float32); ok {
			u = 0x1p-24
		}
		for i := range host {
			tol := 16 * u * n * max(1, host[i].NormMax())
			if d := mat.MaxDiff(host[i], other[i]); d > tol {
				t.Fatalf("output %d: host and other table differ by %g > %g", i, d, tol)
			}
		}
	}
	t.Run("portableKernel", func(t *testing.T) {
		var out []*mat.Dense[T]
		var piv []int
		blas.WithPortableKernels(func() { out, piv = lapackOutputs[T](n, ib) })
		compare(t, out, piv)
	})
	var out []*mat.Dense[T]
	var piv []int
	if blas.WithAVX2Kernels(func() { out, piv = lapackOutputs[T](n, ib) }) {
		t.Run("avx2Kernel", func(t *testing.T) { compare(t, out, piv) })
	}
}

// lapackOutputs runs the eight lapack tile kernels the solver's tasks and
// replays call — Getrf, GetrfNoPiv, GEQRT, UNMQR, TSQRT, TSMQR, TTQRT and
// TTMQR — on fixed random n×n tiles with inner block ib, on the current
// kernel tables, and returns every tile they wrote and Getrf's pivots.
func lapackOutputs[T mat.Float](n, ib int) (out []*mat.Dense[T], pivots []int) {
	rng := rand.New(rand.NewSource(71))
	tile := func() *mat.Dense[T] {
		return &mat.Dense[T]{Rows: n, Cols: n, Stride: n, Data: make([]T, n*n)}
	}
	rnd := func() *mat.Dense[T] {
		m := tile()
		for i := range m.Data {
			m.Data[i] = T(rng.NormFloat64())
		}
		return m
	}
	a := rnd()
	pivots, _ = lapack.Getrf(a)
	dd := rnd()
	for i := 0; i < n; i++ {
		dd.Set(i, i, dd.At(i, i)+T(2*n))
	}
	_ = lapack.GetrfNoPiv(dd) // diagonally dominant: no zero pivot
	v, tv, c := rnd(), tile(), rnd()
	lapack.GeqrtIB(v, tv, ib)
	lapack.Unmqr(blas.Trans, v, tv, c)
	r, v2, t2, c1, c2 := rnd(), rnd(), tile(), rnd(), rnd()
	lapack.TsqrtIB(r, v2, t2, ib)
	lapack.Tsmqr(blas.Trans, v2, t2, c1, c2)
	r1, r2, t3, d1, d2 := rnd(), rnd(), tile(), rnd(), rnd()
	lapack.TtqrtIB(r1, r2, t3, ib)
	lapack.Ttmqr(blas.Trans, r2, t3, d1, d2)
	return []*mat.Dense[T]{a, dd, v, tv, c, r, v2, t2, c1, c2, r1, r2, t3, d1, d2}, pivots
}

// TestAVX512MatchesAVX2Bits pins the AVX-512 tables to the AVX2 ones bit
// for bit. They differ only in the micro-kernel's width and Gemm's narrow
// cut; MR, KC, the packing and one FMA chain per element of C from zero
// per KC block are shared, so no result may move by even a rounding:
// Gemm over the four transposes, MR and NR fringes of both geometries, the
// KC, MC and NC block boundaries, the alpha/beta cases and widths 1–8
// across the narrow cuts; Trsm and Trmm on both sides with one column
// among the widths; and the eight lapack tile kernels.
func TestAVX512MatchesAVX2Bits(t *testing.T) {
	if blas.KernelID[float64]() != "avx512" {
		t.Skip("host runs no AVX-512 tables")
	}
	t.Run("float64", checkAVX512Bits[float64])
	t.Run("float32", checkAVX512Bits[float32])
}

func checkAVX512Bits[T mat.Float](t *testing.T) {
	run := func() (out [][]T, labels []string) {
		record := func(label string, m *mat.Dense[T]) {
			row := make([]T, 0, m.Rows*m.Cols)
			for i := 0; i < m.Rows; i++ {
				row = append(row, m.Row(i)...)
			}
			out, labels = append(out, row), append(labels, label)
		}
		rng := rand.New(rand.NewSource(72))
		// rnd returns a random r×c view inside a larger parent, so strides
		// differ from widths.
		rnd := func(r, c int) *mat.Dense[T] {
			p := &mat.Dense[T]{Rows: r + 2, Cols: c + 3, Stride: c + 3, Data: make([]T, (r+2)*(c+3))}
			for i := range p.Data {
				p.Data[i] = T(rng.NormFloat64())
			}
			return p.View(1, 1, r, c)
		}
		var shapes [][3]int // {m, n, k}
		for n := 1; n <= 8; n++ {
			shapes = append(shapes, [3]int{13, n, 40})
		}
		for _, mn := range [][2]int{{5, 15}, {6, 16}, {7, 17}, {12, 31}, {6, 32}, {11, 33}, {40, 40}} {
			shapes = append(shapes, [3]int{mn[0], mn[1], 9})
		}
		shapes = append(shapes, [3]int{7, 19, 255}, [3]int{9, 21, 257}, [3]int{5, 3, 513}, // KC
			[3]int{133, 20, 17}, [3]int{9, 513, 5}) // MC, NC
		for _, d := range shapes {
			m, n, k := d[0], d[1], d[2]
			for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					for _, ab := range [][2]T{{1, 1}, {-0.5, 0}, {0, 2}, {2, -1}} {
						ar, ac, br, bc := m, k, k, n
						if ta == blas.Trans {
							ar, ac = k, m
						}
						if tb == blas.Trans {
							br, bc = n, k
						}
						a, b, c := rnd(ar, ac), rnd(br, bc), rnd(m, n)
						blas.Gemm(ta, tb, ab[0], a, b, ab[1], c)
						record("Gemm", c)
					}
				}
			}
		}
		for _, n := range []int{1, 7, 13, 40, 100, 261} {
			for _, w := range []int{1, 2, 5, 17, 33} {
				for _, side := range []blas.Side{blas.Left, blas.Right} {
					for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
						for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
							for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
								tm := rnd(n, n)
								for i := 0; i < n; i++ {
									tm.Set(i, i, tm.At(i, i)+T(n)) // well posed
								}
								br, bc := n, w
								if side == blas.Right {
									br, bc = w, n
								}
								b := rnd(br, bc)
								blas.Trsm(side, uplo, trans, diag, -0.5, tm, b)
								record("Trsm", b)
								b = rnd(br, bc)
								blas.Trmm(side, uplo, trans, diag, -0.5, tm, b)
								record("Trmm", b)
							}
						}
					}
				}
			}
		}
		for _, nib := range [][2]int{{40, 8}, {97, 32}} {
			tiles, piv := lapackOutputs[T](nib[0], nib[1])
			for _, m := range tiles {
				record("lapack", m)
			}
			p := &mat.Dense[T]{Rows: 1, Cols: len(piv), Stride: len(piv), Data: make([]T, len(piv))}
			for i, v := range piv {
				p.Data[i] = T(v)
			}
			record("Getrf pivots", p)
		}
		return out, labels
	}
	host, labels := run()
	var avx2 [][]T
	blas.WithAVX2Kernels(func() { avx2, _ = run() })
	for r, got := range host {
		for i, v := range got {
			if w := avx2[r][i]; math.Float64bits(float64(v)) != math.Float64bits(float64(w)) {
				t.Fatalf("%s result %d, element %d: AVX-512 %v, AVX2 %v", labels[r], r, i, v, w)
			}
		}
	}
}
