package blas_test

import (
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/lapack"
	"luqr/internal/mat"
)

// TestLapackKernelsAgreeAcrossTables runs every lapack tile kernel at both
// precisions under the host and the portable kernel tables and requires the
// two results to agree at the type's resolution. lapack has no per-type code
// of its own, so this puts its kernels, which lapack's tests check on the
// host tables, under the portable ones too.
func TestLapackKernelsAgreeAcrossTables(t *testing.T) {
	t.Run("float64", checkLapackAcrossTables[float64])
	t.Run("float32", checkLapackAcrossTables[float32])
}

func checkLapackAcrossTables[T mat.Float](t *testing.T) {
	const n, ib = 40, 8
	run := func() (out []*mat.Dense[T], pivots []int) {
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
		v, tv, c := rnd(), tile(), rnd()
		lapack.GeqrtIB(v, tv, ib)
		lapack.Unmqr(blas.Trans, v, tv, c)
		r, v2, t2, c1, c2 := rnd(), rnd(), tile(), rnd(), rnd()
		lapack.TsqrtIB(r, v2, t2, ib)
		lapack.Tsmqr(blas.Trans, v2, t2, c1, c2)
		r1, r2, t3, d1, d2 := rnd(), rnd(), tile(), rnd(), rnd()
		lapack.TtqrtIB(r1, r2, t3, ib)
		lapack.Ttmqr(blas.Trans, r2, t3, d1, d2)
		return []*mat.Dense[T]{a, v, tv, c, r, v2, t2, c1, c2, r1, r2, t3, d1, d2}, pivots
	}
	host, hostPiv := run()
	var portable []*mat.Dense[T]
	var portablePiv []int
	blas.WithPortableKernels(func() { portable, portablePiv = run() })
	for k := range hostPiv {
		if hostPiv[k] != portablePiv[k] {
			t.Fatalf("Getrf pivot %d: host %d, portable %d", k, hostPiv[k], portablePiv[k])
		}
	}
	u := 0x1p-53
	if _, ok := any(T(0)).(float32); ok {
		u = 0x1p-24
	}
	for i := range host {
		tol := 16 * u * n * max(1, host[i].NormMax())
		if d := mat.MaxDiff(host[i], portable[i]); d > tol {
			t.Fatalf("output %d: host and portable tables differ by %g > %g", i, d, tol)
		}
	}
}
