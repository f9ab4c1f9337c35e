package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

var allAlgs = []Algorithm{LUNoPiv, LUIncPiv, LUPP, HQR, LUQR}

func runOn(t *testing.T, a *mat.Matrix, b []float64, cfg Config) *Result {
	t.Helper()
	res, err := Run(a, b, cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Alg, err)
	}
	return res
}

// TestAllAlgorithmsSolveAccurately checks the end-to-end HPL3 backward error
// on well-conditioned random systems across algorithms, grids, and tile
// shapes.
func TestAllAlgorithmsSolveAccurately(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grids := []tile.Grid{tile.NewGrid(1, 1), tile.NewGrid(4, 1), tile.NewGrid(1, 4), tile.NewGrid(2, 3)}
	shapes := [][2]int{{1, 12}, {2, 8}, {5, 8}, {8, 12}}
	for _, alg := range allAlgs {
		for gi, g := range grids {
			sh := shapes[gi]
			nt, nb := sh[0], sh[1]
			n := nt * nb
			a := matgen.Random(n, rng)
			b := matgen.RandomVector(n, rng)
			res := runOn(t, a, b, Config{Alg: alg, NB: nb, Grid: g, Criterion: criteria.Max{Alpha: 1000}})
			if math.IsNaN(res.Report.HPL3) || res.Report.HPL3 > 50 {
				t.Errorf("%v grid=%dx%d nt=%d nb=%d: HPL3 = %g", alg, g.P, g.Q, nt, nb, res.Report.HPL3)
			}
		}
	}
}

// TestResidualAgainstExactSolution feeds b = A·x_true and compares x.
func TestResidualAgainstExactSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 80
	a := matgen.DiagDominant(n, rng)
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	for _, alg := range allAlgs {
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2)})
		for i := range xTrue {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-8*(1+math.Abs(xTrue[i])) {
				t.Fatalf("%v: x[%d] = %g, want %g", alg, i, res.X[i], xTrue[i])
			}
		}
	}
}

func TestSingleTileMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := matgen.Random(12, rng)
	b := matgen.RandomVector(12, rng)
	for _, alg := range allAlgs {
		res := runOn(t, a, b, Config{Alg: alg, NB: 12})
		if res.Report.HPL3 > 10 {
			t.Errorf("%v single tile: HPL3 = %g", alg, res.Report.HPL3)
		}
		if len(res.Report.Decisions) != 1 {
			t.Errorf("%v: expected a single step", alg)
		}
	}
}

// TestDeterministicAcrossWorkers: the dataflow semantics make the result a
// pure function of the submission program — any worker count must produce
// bitwise identical solutions and identical decisions.
func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	for _, alg := range allAlgs {
		var refX []float64
		var refDec []bool
		for _, w := range []int{1, 2, 8} {
			res := runOn(t, a, b, Config{
				Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2), Workers: w,
				Criterion: criteria.Max{Alpha: 50}, Seed: 3,
			})
			if refX == nil {
				refX, refDec = res.X, res.Report.Decisions
				continue
			}
			for i := range refX {
				if res.X[i] != refX[i] {
					t.Fatalf("%v: workers=%d changed x[%d]: %g vs %g", alg, w, i, res.X[i], refX[i])
				}
			}
			for k := range refDec {
				if res.Report.Decisions[k] != refDec[k] {
					t.Fatalf("%v: workers=%d changed decision %d", alg, w, k)
				}
			}
		}
	}
}

// TestAlphaZeroMatchesHQRBitwise: LUQR with the Never criterion restores
// every trial panel and runs exactly the HQR elimination, so the solution
// must be bitwise identical to HQR's — the paper's α = 0 configuration
// differs only by the decision-path overhead (§V-B).
func TestAlphaZeroMatchesHQRBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	cfgQR := Config{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 2)}
	cfgHybrid := Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Never{}}
	r1 := runOn(t, a, b, cfgQR)
	r2 := runOn(t, a, b, cfgHybrid)
	if r2.Report.LUSteps != 0 {
		t.Fatalf("Never criterion took %d LU steps", r2.Report.LUSteps)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("x[%d] differs: %g vs %g", i, r1.X[i], r2.X[i])
		}
	}
}

// TestAlphaInfinityAllLU: the Always criterion must keep every trial panel.
func TestAlphaInfinityAllLU(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Always{}})
	if res.Report.QRSteps != 0 {
		t.Fatalf("Always criterion took %d QR steps", res.Report.QRSteps)
	}
	if res.Report.HPL3 > 100 {
		t.Fatalf("domain-pivoted all-LU run unstable on random matrix: HPL3 = %g", res.Report.HPL3)
	}
}

// TestSumCriterionDiagonallyDominantAllLU: §III-B — on a block diagonally
// dominant matrix the Sum criterion with α = 1 accepts every step.
func TestSumCriterionDiagonallyDominantAllLU(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Sum{Alpha: 1}})
	if res.Report.QRSteps != 0 {
		t.Fatalf("Sum α=1 took %d QR steps on a diagonally dominant matrix", res.Report.QRSteps)
	}
	if res.Report.HPL3 > 10 {
		t.Fatalf("HPL3 = %g", res.Report.HPL3)
	}
}

// TestCriteriaVariantsSolve exercises Sum, MUMPS and Random criteria plus
// the diagonal-tile pivot scope end to end.
func TestCriteriaVariantsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	cfgs := []Config{
		{Alg: LUQR, Criterion: criteria.Sum{Alpha: 100}},
		{Alg: LUQR, Criterion: criteria.MUMPS{Alpha: 2.1}},
		{Alg: LUQR, Criterion: criteria.Random{Alpha: 50}, Seed: 5},
		{Alg: LUQR, Criterion: criteria.Max{Alpha: 100}, Scope: ScopeTile},
	}
	for _, cfg := range cfgs {
		cfg.NB = 16
		cfg.Grid = tile.NewGrid(2, 2)
		res := runOn(t, a, b, cfg)
		if res.Report.HPL3 > 50 {
			t.Errorf("criterion %s: HPL3 = %g", cfg.Criterion.Name(), res.Report.HPL3)
		}
	}
}

// TestRandomCriterionSeedReproducible: same seed → same decisions; different
// seed → (almost surely) different decisions.
func TestRandomCriterionSeedReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 160
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	mk := func(seed int64) []bool {
		res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Criterion: criteria.Random{Alpha: 50}, Seed: seed})
		return res.Report.Decisions
	}
	d1, d2, d3 := mk(1), mk(1), mk(2)
	same12, same13 := true, true
	for k := range d1 {
		if d1[k] != d2[k] {
			same12 = false
		}
		if d1[k] != d3[k] {
			same13 = false
		}
	}
	if !same12 {
		t.Fatal("same seed gave different decisions")
	}
	if same13 {
		t.Fatal("different seeds gave identical decisions (10 coin flips)")
	}
}

// TestHQRTreeVariants: every reduction-tree combination must factor
// correctly.
func TestHQRTreeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	trees := []tree.Tree{tree.FlatTS, tree.FlatTT, tree.Binary, tree.Greedy, tree.Fibonacci}
	for _, intra := range trees {
		for _, inter := range []tree.Tree{tree.FlatTT, tree.Fibonacci, tree.Greedy} {
			res := runOn(t, a, b, Config{Alg: HQR, NB: 12, Grid: tile.NewGrid(3, 1), IntraTree: intra, InterTree: inter})
			if res.Report.HPL3 > 10 {
				t.Errorf("trees %v/%v: HPL3 = %g", intra, inter, res.Report.HPL3)
			}
		}
	}
}

// TestLUNoPivBreakdown: a nonsingular matrix whose leading tile is singular
// defeats tile-local pivoting (the §V-C failure mode).
func TestLUNoPivBreakdown(t *testing.T) {
	nb := 8
	n := 4 * nb
	a := mat.New(n, n)
	// Anti-diagonal block identity: nonsingular, every leading tile zero.
	for i := 0; i < n; i++ {
		a.Set(i, n-1-i, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	res := runOn(t, a, b, Config{Alg: LUNoPiv, NB: nb})
	if !res.Report.Breakdown {
		t.Fatal("LU NoPiv must report breakdown on a singular leading tile")
	}
	// LUPP and HQR handle it.
	for _, alg := range []Algorithm{LUPP, HQR} {
		res := runOn(t, a, b, Config{Alg: alg, NB: nb})
		if res.Report.Breakdown || res.Report.HPL3 > 10 {
			t.Fatalf("%v should solve the anti-diagonal system: breakdown=%v HPL3=%g", alg, res.Report.Breakdown, res.Report.HPL3)
		}
	}
	// The hybrid with a sane criterion must switch to QR steps and survive.
	// (On a 4×1 grid the diagonal domain of step 0 is just the singular
	// leading tile, so only the criterion can save the step; on a 1×1 grid
	// the domain would span the whole panel and pivot around it.)
	hy := runOn(t, a, b, Config{Alg: LUQR, NB: nb, Grid: tile.NewGrid(4, 1), Criterion: criteria.Max{Alpha: 100}})
	if hy.Report.Breakdown || hy.Report.HPL3 > 10 {
		t.Fatalf("LUQR should survive the singular leading tile: breakdown=%v HPL3=%g", hy.Report.Breakdown, hy.Report.HPL3)
	}
	if hy.Report.QRSteps == 0 {
		t.Fatal("LUQR should have taken QR steps on the singular panel")
	}
}

// TestStabilityOrderingOnPathological reproduces the §V-C contrast in
// miniature: on a GEPP-growth matrix, the hybrid with a tight Max criterion
// must be far more stable than LU NoPiv.
func TestStabilityOrderingOnPathological(t *testing.T) {
	n := 128
	a := matgen.Foster(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	nopiv := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16})
	hqr := runOn(t, a, b, Config{Alg: HQR, NB: 16})
	hybrid := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 1}})
	if hqr.Report.HPL3 > 10 {
		t.Fatalf("HQR unstable on foster: %g", hqr.Report.HPL3)
	}
	if hybrid.Report.HPL3 > 100*hqr.Report.HPL3+10 {
		t.Fatalf("hybrid(Max α=1) HPL3 = %g vs HQR %g", hybrid.Report.HPL3, hqr.Report.HPL3)
	}
	if !(nopiv.Report.Growth > 1e6) {
		t.Fatalf("LU NoPiv growth on foster = %g, expected exponential", nopiv.Report.Growth)
	}
	if hybrid.Report.Growth > 1e3 {
		t.Fatalf("hybrid growth = %g, criterion failed to contain it", hybrid.Report.Growth)
	}
}

func TestTraceRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Trace: true, Criterion: criteria.Max{Alpha: 100}})
	tr := res.Report.Trace
	if len(tr) == 0 {
		t.Fatal("no trace recorded")
	}
	// Submission order must be a valid topological order.
	seen := map[int]bool{}
	msgs := 0
	for _, task := range tr {
		for _, d := range task.Deps {
			if !seen[d] {
				t.Fatalf("task %d depends on unseen task %d", task.ID, d)
			}
		}
		seen[task.ID] = true
		msgs += len(task.Recv)
	}
	if msgs == 0 {
		t.Fatal("multi-node run recorded no inter-node messages")
	}
	// A 1×1 grid must record no messages at all.
	res1 := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(1, 1), Trace: true, Criterion: criteria.Max{Alpha: 100}})
	for _, task := range res1.Report.Trace {
		if len(task.Recv) != 0 {
			t.Fatalf("single-node run shipped data: %v", task.Recv)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	a := mat.New(4, 5)
	if _, err := Run(a, make([]float64, 4), Config{}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	sq := mat.Identity(4)
	if _, err := Run(sq, make([]float64, 3), Config{}); err == nil {
		t.Fatal("wrong RHS length accepted")
	}
}

// TestRunRejectsOutOfRangeConfigs: Run returns an error, and neither panics
// nor runs, for every enumeration outside its constants, every grid side
// below 1 and a negative NB or IB: unchecked, a variant past (B2) panics on
// a worker goroutine, a zero grid side divides by zero in Grid.Owner, a
// negative one runs, and a negative NB or IB runs as the default.
// The all-zero grid stays the 1×1 default, and every enumeration's last
// constant runs.
func TestRunRejectsOutOfRangeConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matgen.Random(16, rng)
	b := matgen.RandomVector(16, rng)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"alg-negative", Config{Alg: Algorithm(-1)}, "algorithm"},
		{"alg-past-hlu", Config{Alg: HLU + 1}, "algorithm"},
		{"variant-past-b2", Config{Alg: LUQR, Variant: LUVariant(4)}, "variant"},
		{"variant-negative", Config{Alg: HQR, Variant: LUVariant(-1)}, "variant"},
		{"scope", Config{Alg: LUQR, Scope: Scope(3)}, "scope"},
		{"precision-past-f32", Config{Alg: HQR, Precision: Precision(3)}, "precision"},
		{"precision-negative", Config{Alg: LUPP, Precision: Precision(-1)}, "precision"},
		{"intra-tree", Config{Alg: LUQR, IntraTree: tree.Tree(42)}, "tree"},
		{"inter-tree", Config{Alg: HQR, IntraTree: tree.Greedy, InterTree: tree.Tree(-1)}, "tree"},
		{"grid-p-zero", Config{Alg: HQR, Grid: tile.Grid{P: 0, Q: 2}}, "grid"},
		{"grid-q-zero", Config{Alg: LUQR, Grid: tile.Grid{P: 2, Q: 0}}, "grid"},
		{"grid-p-negative", Config{Alg: HLU, Grid: tile.Grid{P: -1, Q: 2}}, "grid"},
		{"grid-q-negative", Config{Alg: LUPP, Grid: tile.Grid{P: 2, Q: -1}}, "grid"},
		{"nb-negative", Config{Alg: HQR, NB: -8, IB: -5}, "tile size"},
		{"nb-negative-lu", Config{Alg: LUQR, NB: -1}, "tile size"},
		{"ib-negative", Config{Alg: HQR, IB: -5}, "inner block"},
		{"ib-negative-hlu", Config{Alg: HLU, IB: -1}, "inner block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.NB == 0 {
				tc.cfg.NB = 8
			}
			_, err := Run(a, b, tc.cfg)
			if err == nil {
				t.Fatalf("Run accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the %s", err, tc.want)
			}
		})
	}
	for _, cfg := range []Config{
		{Alg: HLU, IntraTree: tree.Fibonacci, InterTree: tree.Fibonacci},
		{Alg: LUQR, Variant: VarB2, Scope: ScopeTile},
		{Alg: LUQR, Precision: PrecisionF32},
		{Alg: HQR, Grid: tile.Grid{}},
	} {
		cfg.NB = 8
		runOn(t, a, b, cfg)
	}
}

// TestRunPadsNonMultipleN: §II-D.2 — N need not divide into tiles; the
// clean-up pads with an identity block and the solution is unaffected.
func TestRunPadsNonMultipleN(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range []int{10, 37, 90} {
		a := matgen.Random(n, rng)
		xTrue := matgen.RandomVector(n, rng)
		b := mat.MulVec(a, xTrue)
		for _, alg := range []Algorithm{LUQR, HQR, LUPP} {
			res := runOn(t, a, b, Config{Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 1000}})
			if len(res.X) != n {
				t.Fatalf("%v n=%d: solution length %d", alg, n, len(res.X))
			}
			if res.Report.N != n {
				t.Fatalf("%v n=%d: report N = %d", alg, n, res.Report.N)
			}
			for i := range xTrue {
				if math.Abs(res.X[i]-xTrue[i]) > 1e-7*(1+math.Abs(xTrue[i])) {
					t.Fatalf("%v n=%d: x[%d] = %g, want %g", alg, n, i, res.X[i], xTrue[i])
				}
			}
		}
	}
	// NB unset and tiny N: defaults must adapt.
	small := matgen.Random(7, rng)
	bs := matgen.RandomVector(7, rng)
	res := runOn(t, small, bs, Config{Alg: HQR})
	if res.Report.HPL3 > 10 {
		t.Fatalf("tiny system HPL3 = %g", res.Report.HPL3)
	}
}

func TestRunDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := matgen.Random(32, rng)
	b := matgen.RandomVector(32, rng)
	ac := a.Clone()
	bc := append([]float64(nil), b...)
	runOn(t, a, b, Config{Alg: LUQR, NB: 16})
	if !mat.Equal(a, ac) {
		t.Fatal("Run mutated A")
	}
	for i := range b {
		if b[i] != bc[i] {
			t.Fatal("Run mutated b")
		}
	}
}

func TestReportDerivedQuantities(t *testing.T) {
	r := &Report{N: 100, Decisions: []bool{true, true, false, false}, LUSteps: 2, QRSteps: 2}
	if r.FracLU() != 0.5 {
		t.Fatal("FracLU wrong")
	}
	fake, true_ := r.FakeGFlops(1), r.TrueGFlops(1)
	if !(true_ > fake) {
		t.Fatalf("true GFLOP/s (%g) must exceed fake (%g) when QR steps ran", true_, fake)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range allAlgs {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

// TestGridShapesProperty: random grid/tile combinations all solve.
func TestGridShapesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 12; trial++ {
		p := 1 + rng.Intn(4)
		q := 1 + rng.Intn(4)
		nt := 1 + rng.Intn(6)
		nb := 4 + 4*rng.Intn(3)
		n := nt * nb
		a := matgen.Random(n, rng)
		b := matgen.RandomVector(n, rng)
		alg := allAlgs[rng.Intn(len(allAlgs))]
		res := runOn(t, a, b, Config{Alg: alg, NB: nb, Grid: tile.NewGrid(p, q), Criterion: criteria.Max{Alpha: 1000}, Seed: int64(trial)})
		if math.IsNaN(res.Report.HPL3) || res.Report.HPL3 > 100 {
			t.Errorf("trial %d: %v %dx%d grid nt=%d nb=%d HPL3=%g", trial, alg, p, q, nt, nb, res.Report.HPL3)
		}
	}
}

// TestGrowthTracking: the peak intermediate growth must be recorded, be at
// least the final growth for LU-type eliminations, and respect the Max
// criterion's (1+α)^{n−1} bound on norms (§III-A implies a comparable
// element bound scaled by nb).
func TestGrowthTracking(t *testing.T) {
	n := 96
	a := matgen.Wilkinson(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	res := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16, TrackGrowth: true})
	if res.Report.PeakGrowth <= 1 {
		t.Fatalf("PeakGrowth = %g on wilkinson", res.Report.PeakGrowth)
	}
	// The Wilkinson matrix doubles its last column at every scalar step:
	// the peak must be within a factor of the final growth and both huge.
	if res.Report.PeakGrowth < res.Report.Growth/2 {
		t.Fatalf("peak %g below final %g", res.Report.PeakGrowth, res.Report.Growth)
	}
	// With tracking off, the field stays zero.
	res2 := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16})
	if res2.Report.PeakGrowth != 0 {
		t.Fatalf("PeakGrowth recorded without TrackGrowth: %g", res2.Report.PeakGrowth)
	}
	// The hybrid with a tight criterion contains the peak growth too.
	hy := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 1), Criterion: criteria.Max{Alpha: 1}, TrackGrowth: true})
	if hy.Report.PeakGrowth > 100 {
		t.Fatalf("hybrid peak growth %g not contained on wilkinson", hy.Report.PeakGrowth)
	}
}

// TestGrowthTrackingDeterministic: probes are observational — results with
// and without tracking must match bitwise.
func TestGrowthTrackingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	n := 96
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	cfg := Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 200}}
	r1 := runOn(t, a, b, cfg)
	cfg.TrackGrowth = true
	r2 := runOn(t, a, b, cfg)
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatal("growth probes changed the numerical result")
		}
	}
}
