package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/sim"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// TestHLUSolvesAccurately: the multi-eliminator LU must solve random
// systems across grids and tree families.
func TestHLUSolvesAccurately(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, cfg := range []struct {
		nt, nb, p, q int
		intra, inter tree.Tree
	}{
		{1, 12, 1, 1, tree.Greedy, tree.Fibonacci},
		{4, 12, 2, 2, tree.Greedy, tree.Fibonacci},
		{8, 8, 4, 1, tree.Binary, tree.Binary},
		{6, 8, 1, 1, tree.FlatTS, tree.FlatTT}, // flat tree ≈ IncPiv order
	} {
		n := cfg.nt * cfg.nb
		a := matgen.Random(n, rng)
		xTrue := matgen.RandomVector(n, rng)
		b := mat.MulVec(a, xTrue)
		res := runOn(t, a, b, Config{
			Alg: HLU, NB: cfg.nb, Grid: tile.NewGrid(cfg.p, cfg.q),
			IntraTree: cfg.intra, InterTree: cfg.inter,
		})
		for i := range xTrue {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
				t.Fatalf("%+v: x[%d] = %g, want %g", cfg, i, res.X[i], xTrue[i])
			}
		}
	}
}

// TestHLUCriticalPathTradeoffs documents the pipelining trade-off of [8]
// as it applies to the LU trees: on SQUARE matrices the flat chain
// pipelines consecutive panels perfectly (the next panel's diagonal tile is
// the chain's first elimination), so the tree's advantage shows in the
// per-panel reduction depth, not the full-run critical path. Both facts are
// asserted: (a) the greedy tree reduces a panel in logarithmically many
// rounds where the flat chain is linear (the §VII motivation); (b) on a
// square run the flat variant's full critical path is at least competitive
// (which is why [8] pipelines FLAT/FIBONACCI trees on square matrices).
func TestHLUCriticalPathTradeoffs(t *testing.T) {
	// (a) per-panel reduction depth.
	rows := make([]int, 16)
	for i := range rows {
		rows[i] = i
	}
	flat := tree.CriticalPath(tree.Eliminations(rows, tree.FlatTS))
	greedy := tree.CriticalPath(tree.Eliminations(rows, tree.Greedy))
	if !(greedy < flat/2) {
		t.Fatalf("greedy panel depth %d not far below flat %d", greedy, flat)
	}
	// (b) full-run critical paths are in the same ballpark, flat ≤ greedy
	// is acceptable on square matrices thanks to pipelining.
	rng := rand.New(rand.NewSource(81))
	n := 160
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	cp := func(intra, inter tree.Tree) float64 {
		res := runOn(t, a, b, Config{Alg: HLU, NB: 16, Grid: tile.NewGrid(2, 2), Trace: true, IntraTree: intra, InterTree: inter})
		return sim.CriticalPath(res.Report.Trace, 1)
	}
	cpGreedy := cp(tree.Greedy, tree.Fibonacci)
	cpFlat := cp(tree.FlatTS, tree.FlatTT)
	if cpGreedy > 3*cpFlat || cpFlat > 3*cpGreedy {
		t.Fatalf("tree critical paths diverged unexpectedly: greedy %.3g flat %.3g", cpGreedy, cpFlat)
	}
}

// TestHLUStabilityClass: pairwise pivoting — stable on random matrices,
// not necessarily on pathological ones; it must never be wildly worse than
// IncPiv (same kernel class).
func TestHLUStabilityClass(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	n := 128
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	hlu := runOn(t, a, b, Config{Alg: HLU, NB: 16, Grid: tile.NewGrid(2, 2)})
	if hlu.Report.HPL3 > 50 {
		t.Fatalf("HLU unstable on random: HPL3 = %g", hlu.Report.HPL3)
	}
	// The anti-diagonal system (singular tiles) is survivable thanks to the
	// pairwise pivoting.
	n2 := 64
	ad := mat.New(n2, n2)
	for i := 0; i < n2; i++ {
		ad.Set(i, n2-1-i, 1)
	}
	b2 := make([]float64, n2)
	for i := range b2 {
		b2[i] = float64(i + 1)
	}
	res := runOn(t, ad, b2, Config{Alg: HLU, NB: 16, Grid: tile.NewGrid(4, 1)})
	if res.Report.HPL3 > 10 {
		t.Fatalf("HLU failed the anti-diagonal system: HPL3 = %g", res.Report.HPL3)
	}
}

// TestHLUDeterministicAndReplay: worker independence and RHS replay.
func TestHLUDeterministicAndReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	var ref []float64
	for _, w := range []int{1, 4} {
		res := runOn(t, a, b, Config{Alg: HLU, NB: 16, Grid: tile.NewGrid(2, 2), Workers: w})
		if ref == nil {
			ref = res.X
			// Replay the same RHS: must be bitwise identical.
			x2, err := res.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if x2[i] != ref[i] {
					t.Fatal("HLU replay diverged from the original solve")
				}
			}
			continue
		}
		for i := range ref {
			if res.X[i] != ref[i] {
				t.Fatalf("workers=%d changed the HLU result", w)
			}
		}
	}
}

// TestIncPivIsFlatHLU: LU IncPiv is HLU on the flat TS chain, so on a 1×1
// grid, where that chain spans the whole panel, the two agree bit for bit
// on the solution, HPL3, both growth figures, every factored tile and a
// replayed solve. Cauchy's growth is read off a dead panel tile, which
// holds the same multipliers in both.
func TestIncPivIsFlatHLU(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *mat.Matrix
		nb   int
	}{
		{"random", matgen.Random(96, rand.New(rand.NewSource(84))), 16},
		{"random-padded", matgen.Random(90, rand.New(rand.NewSource(85))), 16},
		{"cauchy", matgen.Cauchy(192), 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.a.Rows
			b := matgen.RandomVector(n, rand.New(rand.NewSource(86)))
			cfg := Config{NB: tc.nb, TrackGrowth: true}
			inc, flat := cfg, cfg
			inc.Alg = LUIncPiv
			flat.Alg, flat.IntraTree, flat.InterTree = HLU, tree.FlatTS, tree.FlatTT
			ri, rh := runOn(t, tc.a, b, inc), runOn(t, tc.a, b, flat)
			same := func(what string, x, y []float64) {
				t.Helper()
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						t.Fatalf("%s[%d]: IncPiv %v, flat HLU %v", what, i, x[i], y[i])
					}
				}
			}
			same("X", ri.X, rh.X)
			same("HPL3, Growth, PeakGrowth",
				[]float64{ri.Report.HPL3, ri.Report.Growth, ri.Report.PeakGrowth},
				[]float64{rh.Report.HPL3, rh.Report.Growth, rh.Report.PeakGrowth})
			for i := 0; i < ri.Factored.MT; i++ {
				for j := 0; j < ri.Factored.NT; j++ {
					same(fmt.Sprintf("tile (%d,%d)", i, j), ri.Factored.Tile(i, j).Data, rh.Factored.Tile(i, j).Data)
				}
			}
			b2 := matgen.RandomVector(n, rand.New(rand.NewSource(87)))
			xi, err := ri.Solve(b2)
			if err != nil {
				t.Fatal(err)
			}
			xh, err := rh.Solve(b2)
			if err != nil {
				t.Fatal(err)
			}
			same("Solve", xi, xh)
		})
	}
}
