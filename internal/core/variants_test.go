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

var allVariants = []LUVariant{VarA2, VarB1, VarB2}

// TestVariantsSolveAccurately: every §II-C variant must produce accurate
// solutions across criteria outcomes (all-LU, all-QR, mixed), and under the
// Max criterion record a finite margin at every step, as (A1) does.
func TestVariantsSolveAccurately(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n := 96
	a := matgen.Random(n, rng)
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	for _, v := range allVariants {
		for _, crit := range []criteria.Criterion{criteria.Always{}, criteria.Never{}, criteria.Max{Alpha: 200}} {
			res := runOn(t, a, b, Config{
				Alg: LUQR, Variant: v, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: crit,
			})
			if res.Report.HPL3 > 50 || math.IsNaN(res.Report.HPL3) {
				t.Errorf("variant %v criterion %s: HPL3 = %g", v, crit.Name(), res.Report.HPL3)
				continue
			}
			if _, isMax := crit.(criteria.Max); isMax {
				r := res.Report
				for k, m := range r.Margins {
					if math.IsNaN(m) || math.IsInf(m, 0) {
						t.Errorf("variant %v step %d: margin %g", v, k, m)
					}
				}
				if math.IsNaN(r.MarginMin) || math.IsNaN(r.MarginMax) {
					t.Errorf("variant %v: margin range [%g, %g]", v, r.MarginMin, r.MarginMax)
				}
			}
			for i := range xTrue {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
					t.Errorf("variant %v criterion %s: x[%d] = %g, want %g", v, crit.Name(), i, res.X[i], xTrue[i])
					break
				}
			}
		}
	}
}

// TestVariantsMixedSteps exercises a matrix that forces both branches: an
// anti-diagonal-ish block that defeats the tile-local trial on step 0.
func TestVariantsMixedSteps(t *testing.T) {
	nb := 8
	n := 4 * nb
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, n-1-i, 1) // nonsingular, singular leading tile
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	for _, v := range allVariants {
		res := runOn(t, a, b, Config{
			Alg: LUQR, Variant: v, NB: nb, Grid: tile.NewGrid(4, 1),
			Criterion: criteria.Max{Alpha: 100},
		})
		if res.Report.QRSteps == 0 {
			t.Errorf("variant %v: singular leading tile did not force a QR step", v)
		}
		if res.Report.HPL3 > 10 {
			t.Errorf("variant %v: HPL3 = %g on mixed run", v, res.Report.HPL3)
		}
	}
}

// TestVariantB1BlockTriangularResult: after an all-LU (B1) run, the final
// matrix is block upper triangular (dense diagonal tiles with their LU
// factors, untouched row blocks) and the block back-substitution still
// reproduces the solution; meanwhile an (A1) run leaves a scalar upper
// triangular factor.
func TestVariantB1BlockTriangularResult(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 64
	a := matgen.DiagDominant(n, rng)
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	res := runOn(t, a, b, Config{Alg: LUQR, Variant: VarB1, NB: 16, Criterion: criteria.Always{}})
	if res.Report.LUSteps != 4 {
		t.Fatalf("expected 4 LU steps, got %d", res.Report.LUSteps)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-8*(1+math.Abs(xTrue[i])) {
			t.Fatalf("B1 solve error at %d: %g vs %g", i, res.X[i], xTrue[i])
		}
	}
	// Row block 0's trailing tiles must equal the ORIGINAL A (no Apply).
	ta := tile.FromDense(a, 16)
	for j := 1; j < 4; j++ {
		if !mat.Equal(res.Factored.Tile(0, j), ta.Tile(0, j)) {
			t.Fatalf("B1 modified row block 0, column %d", j)
		}
	}
}

// TestVariantA2ReusesTrialOnQRPath: with the Never criterion, (A2) must
// take all QR steps and still be bitwise identical to plain HQR — the trial
// GEQRT is exactly the elimination's first kernel.
func TestVariantA2ReusesTrialOnQRPath(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	hqr := runOn(t, a, b, Config{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 2)})
	for _, v := range []LUVariant{VarA2, VarB2} {
		res := runOn(t, a, b, Config{Alg: LUQR, Variant: v, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Never{}})
		if res.Report.LUSteps != 0 {
			t.Fatalf("variant %v: Never criterion took LU steps", v)
		}
		for i := range hqr.X {
			if res.X[i] != hqr.X[i] {
				t.Fatalf("variant %v: x[%d] differs from HQR (%g vs %g)", v, i, res.X[i], hqr.X[i])
			}
		}
	}
}

// TestVariantA2NoRestoreTasks: the (A2) trace must contain no Backup or
// Restore tasks (the stated benefit over (A1)), while (B1) keeps them.
func TestVariantA2NoRestoreTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	count := func(v LUVariant) (backup, restore int) {
		res := runOn(t, a, b, Config{
			Alg: LUQR, Variant: v, NB: 16, Grid: tile.NewGrid(2, 2),
			Criterion: criteria.Never{}, Trace: true,
		})
		for _, task := range res.Report.Trace {
			switch task.Kernel {
			case "BACKUP":
				backup++
			case "RESTORE":
				restore++
			}
		}
		return
	}
	if bk, rs := count(VarA2); bk != 0 || rs != 0 {
		t.Fatalf("A2 trace has %d backup / %d restore tasks", bk, rs)
	}
	if bk, rs := count(VarB1); bk == 0 || rs == 0 {
		t.Fatalf("B1 trace missing backup/restore tasks (%d/%d)", bk, rs)
	}
}

// TestVariantsDeterministic: worker-count independence holds for the
// variants too.
func TestVariantsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	for _, v := range allVariants {
		var ref []float64
		for _, w := range []int{1, 4} {
			res := runOn(t, a, b, Config{
				Alg: LUQR, Variant: v, NB: 16, Grid: tile.NewGrid(2, 2),
				Criterion: criteria.Max{Alpha: 100}, Workers: w,
			})
			if ref == nil {
				ref = res.X
				continue
			}
			for i := range ref {
				if res.X[i] != ref[i] {
					t.Fatalf("variant %v: workers=%d changed the result", v, w)
				}
			}
		}
	}
}

// TestVariantStabilityOnPathological: the B variants' criterion must still
// steer pathological panels to QR.
func TestVariantStabilityOnPathological(t *testing.T) {
	n := 128
	a := matgen.Foster(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for _, v := range allVariants {
		res := runOn(t, a, b, Config{Alg: LUQR, Variant: v, NB: 16, Grid: tile.NewGrid(4, 1), Criterion: criteria.Max{Alpha: 1}})
		if res.Report.HPL3 > 10 {
			t.Errorf("variant %v: HPL3 = %g on foster", v, res.Report.HPL3)
		}
		if res.Report.Growth > 1e4 {
			t.Errorf("variant %v: growth %g not contained", v, res.Report.Growth)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range []LUVariant{VarA1, VarA2, VarB1, VarB2} {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("zz"); err == nil {
		t.Fatal("expected error")
	}
}

// TestWilkinsonDecisionsIndependentOfIB: every tile below the diagonal of
// the Wilkinson operator is all −1, so it has rank one, and after a QR step
// the columns past the first hold only rounding noise. The QR leaves treat
// such columns as annihilated, so the trailing matrix, and with it each
// step's LU/QR decision under every variant, is a function of the data: it
// must not change with the inner block size or the worker count. (A2)
// and (B2) take QR steps on numerically singular diagonal tiles at N=500
// (step 4), which makes their step 5 the sensitive one.
func TestWilkinsonDecisionsIndependentOfIB(t *testing.T) {
	for _, v := range []LUVariant{VarA1, VarB1, VarA2, VarB2} {
		for _, size := range [][2]int{{192, 32}, {500, 64}} {
			n, nb := size[0], size[1]
			a := matgen.Wilkinson(n)
			b := matgen.RandomVector(n, rand.New(rand.NewSource(int64(n)+1)))
			for _, grid := range []int{1, 2} {
				want := ""
				for _, ib := range []int{8, 16, 24, 31, 32, 33} {
					for _, workers := range []int{1, 2} {
						res := runOn(t, a, b, Config{
							Alg: LUQR, Variant: v, NB: nb, IB: ib, Workers: workers,
							Grid: tile.NewGrid(grid, grid), Criterion: criteria.Max{Alpha: 100},
						})
						got := ""
						for _, lu := range res.Report.Decisions {
							got += map[bool]string{true: "L", false: "Q"}[lu]
						}
						if want == "" {
							want = got
						} else if got != want {
							t.Errorf("%v N=%d nb=%d grid %dx%d ib=%d workers=%d: decisions %s, want %s (ib=8, 1 worker)",
								v, n, nb, grid, grid, ib, workers, got, want)
						}
					}
				}
			}
		}
	}
}
