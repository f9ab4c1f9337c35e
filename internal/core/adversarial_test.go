package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
)

// adversarialOperators builds order-n operators a solver must survive: NaN
// and ±Inf entries, a subnormal tile beside an all-zero one, an all-zero
// row, entries spanning 1e±300, and a nearly repeated row.
func adversarialOperators(n int) map[string]*mat.Matrix {
	rng := rand.New(rand.NewSource(int64(n)))
	ops := map[string]*mat.Matrix{}

	a := matgen.Random(n, rng)
	a.Set(3, 5, math.NaN())
	a.Set(n-1, 0, math.NaN())
	ops["nan"] = a

	a = matgen.Random(n, rng)
	a.Set(2, 2, math.Inf(1))
	a.Set(n-2, 1, math.Inf(-1))
	ops["inf"] = a

	a = matgen.DiagDominant(n, rng)
	a.View(16, 0, 16, 16).Fill(0)
	for i := 16; i < 32; i++ {
		for j := 16; j < 32; j++ {
			a.Set(i, j, 1e-310*a.At(i, j))
		}
	}
	ops["subnormal-zero-tiles"] = a

	a = matgen.DiagDominant(n, rng)
	a.View(5, 0, 1, n).Fill(0)
	ops["zero-row"] = a

	a = matgen.Random(n, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)*math.Pow(10, 300*float64(i+j-(n-1))/float64(n-1)))
		}
	}
	ops["range-1e300"] = a

	a = matgen.Random(n, rng)
	for j := 0; j < n; j++ {
		a.Set(n-1, j, a.At(0, j)*(1+1e-14*rng.NormFloat64()))
	}
	ops["near-singular"] = a
	return ops
}

// sameBits is bit equality that lets any NaN equal any NaN.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestAdversarialOperatorContracts: on every adversarial operator, at every
// precision, padded or not, the report's HPL3 is mat.HPL3 of the returned
// solution, its Growth is the factored tiles' max over the (padded)
// operator's, and X does not depend on the worker count.
func TestAdversarialOperatorContracts(t *testing.T) {
	for _, n := range []int{48, 45} {
		const nb = 16
		for name, a := range adversarialOperators(n) {
			b := matgen.RandomVector(n, rand.New(rand.NewSource(7)))
			padded := mat.Identity((n + nb - 1) / nb * nb)
			padded.View(0, 0, n, n).CopyFrom(a)
			maxA := padded.NormMax()
			for _, alg := range []Algorithm{LUQR, HQR} {
				for _, prec := range []Precision{PrecisionF64, PrecisionAuto, PrecisionF32} {
					var x1 []float64
					for _, workers := range []int{1, 2} {
						cfg := Config{Alg: alg, NB: nb, Precision: prec, Workers: workers, Criterion: criteria.Max{Alpha: 100}}
						res, err := Run(a, b, cfg)
						if err != nil {
							t.Fatalf("%s n=%d %v %v: %v", name, n, alg, prec, err)
						}
						where := func() string {
							return name + " " + alg.String() + " " + prec.String()
						}
						if h := mat.HPL3(a, res.X, b); !sameBits(res.Report.HPL3, h) {
							t.Errorf("%s n=%d w=%d: Report.HPL3 %g, mat.HPL3 %g", where(), n, workers, res.Report.HPL3, h)
						}
						maxF := 0.0
						for _, row := range res.Factored.Tiles {
							for _, tl := range row {
								maxF = math.Max(maxF, tl.NormMax())
							}
						}
						growth := 0.0
						if maxA > 0 {
							growth = maxF / maxA
						}
						if !sameBits(res.Report.Growth, growth) {
							t.Errorf("%s n=%d w=%d: Growth %g, want %g", where(), n, workers, res.Report.Growth, growth)
						}
						if x1 == nil {
							x1 = res.X
							continue
						}
						for i := range x1 {
							if !sameBits(x1[i], res.X[i]) {
								t.Fatalf("%s n=%d: X[%d] = %g at 1 worker, %g at 2", where(), n, i, x1[i], res.X[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestScaledOperatorsSolve: HQR and LUQR solve a random operator scaled
// toward either end of float64's range, as LUPP does. Their Householder
// reflectors square the columns' entries, which under- or overflows at
// these scales unless Larfg scales the column first. Under PrecisionAuto
// the same algorithms solve random and diagonally dominant operators
// scaled below float32's normal range (1e-170, 1e-45) and past its
// headroom (1e+40, 1e+170), padded (N=250) as well, without one float32
// step: float32 would round them to zeros and subnormals, or demote every
// step. Forced PrecisionF32 runs the operators below the range in float64
// too (HQR read HPL3 +Inf at 1e-170 while its float32 steps went
// unflagged). A diagonally dominant operator of order one still runs its
// LU steps in float32.
func TestScaledOperatorsSolve(t *testing.T) {
	const nb = 64
	solve := func(t *testing.T, a *mat.Matrix, alg Algorithm, prec Precision) *Report {
		t.Helper()
		b := matgen.RandomVector(a.Rows, rand.New(rand.NewSource(12)))
		res, err := Run(a, b, Config{Alg: alg, NB: nb, Criterion: criteria.Max{Alpha: 100}, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		if h := res.Report.HPL3; !(h <= 16) {
			t.Errorf("HPL3 %g, want ≤ 16", h)
		}
		return res.Report
	}
	scaled := func(gen func(int, *rand.Rand) *mat.Matrix, n int, s float64) *mat.Matrix {
		a := gen(n, rand.New(rand.NewSource(11)))
		for i := range a.Data {
			a.Data[i] *= s
		}
		return a
	}
	ops := map[string]func(int, *rand.Rand) *mat.Matrix{"random": matgen.Random, "diagdom": matgen.DiagDominant}
	for _, s := range []float64{1e-170, 1e170} {
		for _, alg := range []Algorithm{HQR, LUQR, LUPP} {
			t.Run(fmt.Sprintf("f64/random/%g/%v", s, alg), func(t *testing.T) {
				solve(t, scaled(matgen.Random, 256, s), alg, PrecisionF64)
			})
		}
	}
	for _, name := range []string{"random", "diagdom"} {
		for _, s := range []float64{1e-170, 1e-45, 1e40, 1e170} {
			for _, alg := range []Algorithm{HQR, LUQR, LUPP} {
				t.Run(fmt.Sprintf("auto/%s/%g/%v", name, s, alg), func(t *testing.T) {
					if r := solve(t, scaled(ops[name], 256, s), alg, PrecisionAuto); r.F32Steps != 0 {
						t.Errorf("%d float32 steps on an operator outside float32's range", r.F32Steps)
					}
				})
			}
		}
	}
	for _, name := range []string{"random", "diagdom"} {
		for _, s := range []float64{1e-170, 1e-45} {
			for _, alg := range []Algorithm{HQR, LUQR, LUPP} {
				t.Run(fmt.Sprintf("f32/%s/%g/%v", name, s, alg), func(t *testing.T) {
					if r := solve(t, scaled(ops[name], 256, s), alg, PrecisionF32); r.F32Steps != 0 {
						t.Errorf("%d float32 steps on an operator below float32's range", r.F32Steps)
					}
				})
			}
		}
	}
	for _, prec := range []Precision{PrecisionAuto, PrecisionF32} {
		t.Run(fmt.Sprintf("%v/diagdom/1e-170/padded", prec), func(t *testing.T) {
			if r := solve(t, scaled(matgen.DiagDominant, 250, 1e-170), LUQR, prec); r.F32Steps != 0 {
				t.Errorf("%d float32 steps on a padded operator outside float32's range", r.F32Steps)
			}
		})
	}
	t.Run("auto/diagdom/1/LUQR", func(t *testing.T) {
		if r := solve(t, scaled(matgen.DiagDominant, 256, 1), LUQR, PrecisionAuto); r.F32Steps == 0 {
			t.Error("no float32 step on a diagonally dominant operator of order one")
		}
	})
}
