package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
)

func TestParsePrecision(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionAuto, PrecisionF32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePrecision(""); err != nil || p != PrecisionF64 {
		t.Fatalf("ParsePrecision(\"\") = %v, %v", p, err)
	}
	if _, err := ParsePrecision("half"); err == nil {
		t.Fatal("ParsePrecision(\"half\") accepted")
	}
}

// TestPrecisionResetForUnsupportedAlgorithms checks withDefaults silently
// falls back to f64 where the precision layer has no kernel coverage.
func TestPrecisionResetForUnsupportedAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 32
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{LUIncPiv, CALU, HLU} {
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Precision: PrecisionF32})
		if res.Report.Precision != PrecisionF64 || res.Report.F32Steps != 0 {
			t.Fatalf("%v: precision not reset (prec=%v, f32 steps=%d)", alg, res.Report.Precision, res.Report.F32Steps)
		}
	}
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Variant: VarB1, Precision: PrecisionF32})
	if res.Report.Precision != PrecisionF64 {
		t.Fatalf("LUQR (B1): precision not reset, got %v", res.Report.Precision)
	}
}

// TestForcedF32RefinesToTolerance forces every kernel through the float32
// path and checks the refined solve lands inside the HPL acceptance band —
// the raw f32 solution sits many orders of magnitude above it, so passing
// proves both that f32 kernels ran and that refinement recovered the
// accuracy.
func TestForcedF32RefinesToTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 96
	b := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{LUQR, LUNoPiv, LUPP, HQR} {
		a := matgen.DiagDominant(n, rng)
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2), Precision: PrecisionF32})
		r := res.Report
		if r.Precision != PrecisionF32 {
			t.Fatalf("%v: report precision = %v", alg, r.Precision)
		}
		if r.F32Steps == 0 {
			t.Fatalf("%v: no f32 steps under PrecisionF32 (demotions=%d)", alg, r.Demotions)
		}
		if r.RefineIters == 0 {
			t.Fatalf("%v: f32 run performed no refinement", alg)
		}
		if math.IsNaN(r.HPL3) || r.HPL3 > refineHPL3Tol {
			t.Fatalf("%v: refined HPL3 = %g > %g (f32 steps=%d, iters=%d)", alg, r.HPL3, refineHPL3Tol, r.F32Steps, r.RefineIters)
		}
	}
}

// TestAutoSelectsF32OnComfortableMargins runs the hybrid in auto mode on a
// diagonally dominant system, where the criterion margin is far below the
// threshold: the LU steps must pick up float32 kernels, the margins must be
// recorded, and the solution must stay in the acceptance band.
func TestAutoSelectsF32OnComfortableMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{
		Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 10000},
		Precision: PrecisionAuto,
	})
	r := res.Report
	if r.F32Steps == 0 {
		t.Fatalf("auto mode picked no f32 steps (margins=%v)", r.Margins)
	}
	count := 0
	for k, f32 := range r.StepF32 {
		if f32 {
			count++
			if !(r.Margins[k] <= DefaultF32Margin) {
				t.Fatalf("step %d ran f32 with margin %g > %g", k, r.Margins[k], DefaultF32Margin)
			}
			if !r.Decisions[k] {
				t.Fatalf("step %d ran f32 on a QR decision in auto mode", k)
			}
		}
	}
	if count != r.F32Steps {
		t.Fatalf("StepF32 count %d != F32Steps %d", count, r.F32Steps)
	}
	if math.IsNaN(r.MarginMin) || math.IsNaN(r.MarginMax) || r.MarginMin > r.MarginMax {
		t.Fatalf("margin summary broken: min=%g max=%g", r.MarginMin, r.MarginMax)
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > refineHPL3Tol {
		t.Fatalf("auto HPL3 = %g > %g", r.HPL3, refineHPL3Tol)
	}
}

// TestMixedAutoWithin10xOfF64 is the accuracy property of the mixed path:
// over well- and ill-conditioned matrix classes, auto mode plus refinement
// must land within 10× of the pure-f64 backward error or inside the HPL
// acceptance band (refinement's declared target), whichever is looser. On
// the ill-conditioned classes the criterion margin is uncomfortable and
// auto quietly stays at f64 — that retreat is part of the property.
func TestMixedAutoWithin10xOfF64(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 64
	gens := map[string]*mat.Matrix{
		"diagdom":      matgen.DiagDominant(n, rng),
		"random":       matgen.Random(n, rng),
		"randsvd-1e10": matgen.RandSVD(n, 1e10, matgen.SigmaGeometric, rng),
		"foster":       matgen.Foster(n),
		"condex":       matgen.Condex(n),
		"fiedler":      matgen.Fiedler(n),
	}
	for name, a := range gens {
		b := matgen.RandomVector(n, rng)
		cfg := Config{Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 100}}
		ref := runOn(t, a, b, cfg)
		cfg.Precision = PrecisionAuto
		mixed := runOn(t, a, b, cfg)
		limit := math.Max(10*ref.Report.HPL3, refineHPL3Tol)
		if math.IsNaN(mixed.Report.HPL3) || mixed.Report.HPL3 > limit {
			t.Errorf("%s: mixed HPL3 = %g vs f64 %g (limit %g, f32 steps=%d, demotions=%d)",
				name, mixed.Report.HPL3, ref.Report.HPL3, limit, mixed.Report.F32Steps, mixed.Report.Demotions)
		}
		// Auto licenses float32 only on comfortable margins, so a run that
		// demotes must also have kept a float32 step: demotions alone mean
		// it licensed steps float32 cannot hold.
		if mixed.Report.Demotions > 0 && mixed.Report.F32Steps == 0 {
			t.Errorf("%s: auto run demoted %d tasks with no accepted f32 step", name, mixed.Report.Demotions)
		}
		// No accepted excursion may survive in the factors.
		for i := 0; i < mixed.Factored.MT; i++ {
			for j := 0; j < mixed.Factored.NT; j++ {
				if v := mixed.Factored.Tile(i, j).NormMax(); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite factor tile (%d,%d)", name, i, j)
				}
			}
		}
	}
}

// TestF32ExcursionDemotes feeds the forced-f32 path a matrix whose entries
// overflow float32 outright: every f32 kernel must detect the excursion,
// demote to f64, and the run must come out as accurate as pure f64 — the
// zero-accepted-excursions guarantee at its most extreme.
func TestF32ExcursionDemotes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 48
	a := matgen.DiagDominant(n, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)*1e200) // well past float32 overflow
		}
	}
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32})
	r := res.Report
	if r.Demotions == 0 {
		t.Fatal("no demotions on a float32-overflowing matrix")
	}
	if r.F32Steps != 0 {
		t.Fatalf("%d steps kept their f32 flag after panel overflow", r.F32Steps)
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > 50 {
		t.Fatalf("demoted run HPL3 = %g", r.HPL3)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], xTrue[i])
		}
	}
}

// TestExcursionScanMatchesRangeCheck pins excursion32's one-compare scan to
// the predicate it replaced — widen to float64, flag a NaN or a value
// outside ±bound — at the values where they could part: the bound itself
// and its float32 neighbours, ±Inf, NaNs of both signs, subnormals and
// zeros, and bounds that are exact float32s, not float32s, at most
// math.MaxFloat32 and above it.
func TestExcursionScanMatchesRangeCheck(t *testing.T) {
	ranged := func(v float32, bound float64) bool {
		w := float64(v)
		return math.IsNaN(w) || w > bound || w < -bound
	}
	inf32 := float32(math.Inf(1))
	for _, bound := range []float64{1e8, 1e8 * 1.2345678901, 0x1p100, math.MaxFloat32, 1e39, 1e300, math.Inf(1)} {
		c := float32(bound)
		vals := []float32{
			0, float32(math.Copysign(0, -1)), 1, 0x1p-149, 0x1p-130, -0x1p-149,
			c, math.Nextafter32(c, 0), math.Nextafter32(c, inf32),
			inf32, -inf32, math.MaxFloat32, -math.MaxFloat32,
			math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
		}
		f := &fact{f32Ceil: f32Ceiling(bound)}
		// Each value sits alone among zeros at several positions of a
		// contiguous image (scanned in one blas.Above32 call) and of a row
		// view (one call per row), so it meets the scan's vector blocks,
		// its masked tail and the row boundaries.
		img := mat.NewMatrix32(7, 37)
		view := mat.NewMatrix32(9, 41).View(1, 2, 7, 37)
		for _, v := range append(vals, negate32(vals)...) {
			for _, m := range []*mat.Matrix32{img, view} {
				for _, at := range [][2]int{{0, 0}, {0, 36}, {3, 15}, {3, 16}, {6, 31}, {6, 36}} {
					m.Set(at[0], at[1], v)
					if got, want := f.excursion32(m), ranged(v, bound); got != want {
						t.Errorf("bound %g, v %g (%#08x) at %v, stride %d: excursion32 %v, range check %v",
							bound, v, math.Float32bits(v), at, m.Stride, got, want)
					}
					m.Set(at[0], at[1], 0)
				}
			}
		}
	}
}

// TestExcursionScanZeroAlloc: the scan every resident float32 task runs
// over its outputs allocates nothing, on a contiguous image and on a view.
func TestExcursionScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	f := &fact{f32Ceil: f32Ceiling(1e8)}
	img, view := mat.NewMatrix32(64, 64), mat.NewMatrix32(70, 70).View(3, 3, 64, 64)
	allocs := testing.AllocsPerRun(20, func() {
		if f.excursion32(img, view) {
			t.Fatal("excursion on zeros")
		}
	})
	if allocs != 0 {
		t.Errorf("excursion32: %v allocs/op, want 0", allocs)
	}
}

func negate32(vs []float32) []float32 {
	out := make([]float32, len(vs))
	for i, v := range vs {
		out[i] = math.Float32frombits(math.Float32bits(v) ^ 1<<31)
	}
	return out
}

// TestSolveBatchRefinedNewRHS factors once at forced f32 and solves fresh
// right-hand sides: SolveBatchRefined must refine each column into the
// acceptance band, and SolveBatch must return exactly the refined columns.
func TestSolveBatchRefinedNewRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 80
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32})
	if res.Report.F32Steps == 0 {
		t.Fatal("no f32 steps to exercise the refined solve")
	}
	bs := [][]float64{matgen.RandomVector(n, rng), matgen.RandomVector(n, rng), matgen.RandomVector(n, rng)}
	xs, iters, err := res.SolveBatchRefined(bs)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("SolveBatchRefined did no refinement on an f32 factorization")
	}
	for j := range xs {
		if h := mat.HPL3(a, xs[j], bs[j]); math.IsNaN(h) || h > refineHPL3Tol {
			t.Fatalf("column %d: refined HPL3 = %g > %g", j, h, refineHPL3Tol)
		}
	}
	xs2, err := res.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range xs2 {
		for i := range xs2[j] {
			if xs2[j][i] != xs[j][i] {
				t.Fatalf("SolveBatch diverges from SolveBatchRefined at (%d,%d)", j, i)
			}
		}
	}
}

// TestMixedPaddedSystem checks the precision layer composes with the
// §II-D.2 padding path (N not a multiple of NB): the run and a re-solve
// refine into the band. Refinement must judge the HPL3 Run reports, over
// the original rows with ‖A‖∞ and N. Judged on the padded system instead
// (N rounded up to NB, ‖·‖∞ at least 1), HPL3 reads up to that factor
// lower, and the 1×1 hybrid case at N=500 stopped after one round at a
// padded HPL3 just inside the band while reporting 16.3.
func TestMixedPaddedSystem(t *testing.T) {
	hybrid := Config{Alg: LUQR, NB: 64, Grid: tile.NewGrid(1, 1), Criterion: criteria.Random{Alpha: 50}, Seed: 7}
	hybrid2x2 := hybrid
	hybrid2x2.Grid = tile.NewGrid(2, 2)
	for _, c := range []struct {
		n    int
		seed int64
		cfg  Config
	}{
		{75, 56, Config{Alg: LUQR, NB: 16}}, // pads to 80
		{500, 507, hybrid},                  // pads to 512
		{500, 507, hybrid2x2},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		a := matgen.DiagDominant(c.n, rng)
		b := matgen.RandomVector(c.n, rng)
		c.cfg.Precision = PrecisionF32
		res := runOn(t, a, b, c.cfg)
		if res.Report.F32Steps == 0 {
			t.Fatalf("N=%d %v: padded run took no f32 steps", c.n, c.cfg.Grid)
		}
		if math.IsNaN(res.Report.HPL3) || res.Report.HPL3 > refineHPL3Tol {
			t.Fatalf("N=%d %v: padded mixed HPL3 = %g after %d rounds", c.n, c.cfg.Grid, res.Report.HPL3, res.Report.RefineIters)
		}
		x2, err := res.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if h := mat.HPL3(a, x2, b); math.IsNaN(h) || h > refineHPL3Tol {
			t.Fatalf("N=%d %v: padded refined re-solve HPL3 = %g", c.n, c.cfg.Grid, h)
		}
	}
}

// float32State reports whether f still holds any float32 state: the
// residency store, a step's float32 panel, or a factor's float32 T.
func float32State(f *fact) bool {
	if f.res != nil {
		return true
	}
	for _, st := range f.steps {
		if st.stack32 != nil || st.l11_32 != nil {
			return true
		}
		for _, m := range []map[int]*tFactor{st.tGeqrt, st.tKill} {
			for _, tf := range m {
				if tf.t32 != nil {
					return true
				}
			}
		}
	}
	return false
}

// poisonFloat32 puts NaN-filled float32 state back into f: a residency
// store with a dirty NaN image of every tile and of the right-hand side,
// and NaN float32 panels and T factors. Anything that read one, or
// flushed the store into the tiles, would change its answer.
func poisonFloat32(f *fact) {
	nan := func(m *mat.Matrix32) *mat.Matrix32 {
		for i := 0; i < m.Rows; i++ {
			for j := range m.Row(i) {
				m.Row(i)[j] = float32(math.NaN())
			}
		}
		return m
	}
	f.res = tile.NewResidency(f.A, f.rhs)
	for i := 0; i < f.A.MT; i++ {
		for j := 0; j < f.A.NT; j++ {
			img, _ := f.res.Write32(tile.At(i, j), nil)
			nan(img)
		}
		img, _ := f.res.Write32(tile.RHS(i), nil)
		nan(img)
	}
	for _, st := range f.steps {
		st.stack32 = nan(mat.NewMatrix32(len(st.rows)*f.nb, f.nb))
		st.l11_32 = nan(mat.NewMatrix32(f.nb, f.nb))
		for _, m := range []map[int]*tFactor{st.tGeqrt, st.tKill} {
			for _, tf := range m {
				tf.t32 = nan(mat.NewMatrix32(tf.t.Rows, tf.t.Cols))
			}
		}
	}
}

// TestRunDropsFloat32State: a Result of a run with float32 steps keeps no
// float32 state once Run returns, and nothing after Run reads any:
// SolveBatchRefined and EncodeFactorization give the same bits after
// NaN-poisoned float32 state is put back. Precision auto runs the
// residency store and the steps' float32 panel images, forced f32 the
// step stacks, and HQR the factors' float32 T.
func TestRunDropsFloat32State(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	bs := [][]float64{matgen.RandomVector(n, rng), matgen.RandomVector(n, rng)}
	answers := func(res *Result) ([][]float64, []byte) {
		xs, _, err := res.SolveBatchRefined(bs)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := res.EncodeFactorization()
		if err != nil {
			t.Fatal(err)
		}
		return xs, enc
	}
	for _, cfg := range []Config{
		{Alg: LUQR, NB: 16, Precision: PrecisionAuto},
		{Alg: LUQR, NB: 16, Precision: PrecisionF32},
		{Alg: HQR, NB: 16, Precision: PrecisionF32},
	} {
		res := runOn(t, a, b, cfg)
		if res.Report.F32Steps == 0 {
			t.Fatalf("%v %v: no float32 steps; nothing to drop", cfg.Alg, cfg.Precision)
		}
		if float32State(res.f) {
			t.Fatalf("%v %v: the Result keeps float32 state", cfg.Alg, cfg.Precision)
		}
		xs, enc := answers(res)
		poisonFloat32(res.f)
		xs2, enc2 := answers(res)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%v %v: EncodeFactorization read float32 state", cfg.Alg, cfg.Precision)
		}
		for r := range xs {
			for i := range xs[r] {
				if math.Float64bits(xs[r][i]) != math.Float64bits(xs2[r][i]) {
					t.Fatalf("%v %v: SolveBatchRefined read float32 state: x%d[%d] %v vs %v",
						cfg.Alg, cfg.Precision, r, i, xs2[r][i], xs[r][i])
				}
			}
		}
	}
}
