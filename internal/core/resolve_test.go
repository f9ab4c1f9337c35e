package core

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
)

// TestSolveReplayMatchesOriginal: replaying the stored transformations on
// the ORIGINAL b must reproduce the original solution bit for bit, for
// every algorithm and variant.
func TestSolveReplayMatchesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	cfgs := []Config{
		{Alg: LUQR, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Criterion: criteria.Never{}},
		{Alg: LUQR, Variant: VarA2, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Variant: VarB1, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Variant: VarB2, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUNoPiv},
		{Alg: LUPP},
		{Alg: HQR},
		{Alg: CALU},
		{Alg: LUIncPiv},
	}
	for _, cfg := range cfgs {
		cfg.NB = 16
		cfg.Grid = tile.NewGrid(2, 2)
		res := runOn(t, a, b, cfg)
		x2, err := res.Solve(b)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Alg, cfg.Variant, err)
		}
		for i := range res.X {
			if x2[i] != res.X[i] {
				t.Fatalf("%v/%v: replayed x[%d] = %g, original %g", cfg.Alg, cfg.Variant, i, x2[i], res.X[i])
			}
		}
	}
}

// TestSolveNewRHS: a second right-hand side must be solved accurately
// without re-factoring.
func TestSolveNewRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 96
	a := matgen.Random(n, rng)
	b1 := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{LUQR, HQR, LUPP, CALU, LUIncPiv} {
		res := runOn(t, a, b1, Config{Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 500}})
		xTrue := matgen.RandomVector(n, rng)
		b2 := mat.MulVec(a, xTrue)
		x2, err := res.Solve(b2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xTrue {
			if math.Abs(x2[i]-xTrue[i]) > 1e-7*(1+math.Abs(xTrue[i])) {
				t.Fatalf("%v: new-RHS solve error at %d: %g vs %g", alg, i, x2[i], xTrue[i])
			}
		}
	}
}

// TestSolvePaddedSystem: Solve must work when the original N was not a tile
// multiple.
func TestSolvePaddedSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	n := 37
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16})
	xTrue := matgen.RandomVector(n, rng)
	b2 := mat.MulVec(a, xTrue)
	x2, err := res.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x2) != n {
		t.Fatalf("solution length %d", len(x2))
	}
	for i := range xTrue {
		if math.Abs(x2[i]-xTrue[i]) > 1e-7*(1+math.Abs(xTrue[i])) {
			t.Fatalf("padded solve error at %d", i)
		}
	}
}

// TestSolveBatchMatchesSolve: a batched solve must produce, column for
// column, exactly what the one-at-a-time replay produces — the block kernels
// never mix columns — for every algorithm family, including the block-LU
// variants whose diagonal solvers run on the full NB×W tile. Also covers a
// padded (non-tile-multiple) system.
func TestSolveBatchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	cfgs := []Config{
		{Alg: LUQR, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Variant: VarB2, Criterion: criteria.Max{Alpha: 200}},
		{Alg: HQR},
		{Alg: LUPP},
		{Alg: LUIncPiv},
		{Alg: HLU},
		{Alg: CALU},
		{Alg: LUNoPiv},
		{Alg: LUQR, Variant: VarA2, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Variant: VarB1, Criterion: criteria.Max{Alpha: 200}},
		{Alg: LUQR, Criterion: criteria.Max{Alpha: 200}, Precision: PrecisionF32},
		{Alg: LUQR, Criterion: criteria.Max{Alpha: 200}, Precision: PrecisionAuto},
	}
	// Widths on both sides of the SIMD level-1 threshold (8) and of the GEMM
	// micro-tile width: a column's bits must not depend on how many others
	// share its batch.
	widths := []int{1, 5, 7, 8, 9, 16}
	for _, n := range []int{96, 37} {
		a := matgen.Random(n, rng)
		b := matgen.RandomVector(n, rng)
		bs := make([][]float64, widths[len(widths)-1])
		for j := range bs {
			bs[j] = matgen.RandomVector(n, rng)
		}
		for _, cfg := range cfgs {
			cfg.NB = 16
			if n%cfg.NB == 0 {
				cfg.Grid = tile.NewGrid(2, 2)
			}
			res := runOn(t, a, b, cfg)
			solo := make([][]float64, len(bs))
			for j := range bs {
				x, err := res.Solve(bs[j])
				if err != nil {
					t.Fatal(err)
				}
				solo[j] = x
			}
			for _, w := range widths {
				xs, err := res.SolveBatch(bs[:w])
				if err != nil {
					t.Fatalf("%v n=%d w=%d: %v", cfg.Alg, n, w, err)
				}
				for j, want := range solo[:w] {
					if len(xs[j]) != n {
						t.Fatalf("%v n=%d w=%d: batch solution %d has length %d", cfg.Alg, n, w, j, len(xs[j]))
					}
					for i := range want {
						if xs[j][i] != want[i] {
							t.Fatalf("%v n=%d w=%d: batch x[%d][%d] = %g, solo %g", cfg.Alg, n, w, j, i, xs[j][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSolveBatchValidation covers the batch error paths.
func TestSolveBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a := matgen.Random(32, rng)
	b := matgen.RandomVector(32, rng)
	res := runOn(t, a, b, Config{Alg: HQR, NB: 16})
	if xs, err := res.SolveBatch(nil); err != nil || xs != nil {
		t.Fatalf("empty batch: got %v, %v", xs, err)
	}
	if _, err := res.SolveBatch([][]float64{b, make([]float64, 31)}); err == nil {
		t.Fatal("wrong-length RHS in batch accepted")
	}
	bare := &Result{}
	if _, err := bare.SolveBatch([][]float64{b}); err == nil {
		t.Fatal("SolveBatch on a bare Result must fail")
	}
}

// TestSolveInputValidation covers the error paths.
func TestSolveInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := matgen.Random(32, rng)
	b := matgen.RandomVector(32, rng)
	res := runOn(t, a, b, Config{Alg: HQR, NB: 16})
	if _, err := res.Solve(make([]float64, 31)); err == nil {
		t.Fatal("wrong-length RHS accepted")
	}
	bare := &Result{}
	if _, err := bare.Solve(b); err == nil {
		t.Fatal("Solve on a bare Result must fail")
	}
}

// TestRefineImprovesUnstableSolve: iterative refinement with a
// mildly-unstable LU NoPiv factorization must reduce the backward error
// substantially.
func TestRefineImprovesUnstableSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	n := 128
	a := matgen.Random(n, rng)
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	res := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16, Grid: tile.NewGrid(4, 1)})
	before := mat.HPL3(a, res.X, b)
	if res.Report.Breakdown {
		t.Skip("factorization broke down; nothing to refine")
	}
	refined, err := res.Refine(a, b, res.X, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := mat.HPL3(a, refined, b)
	if !(after < before/2) && before > 1 {
		t.Fatalf("refinement did not help: HPL3 %g → %g", before, after)
	}
	if after > 10 {
		t.Fatalf("refined solution still unstable: HPL3 = %g", after)
	}
}
