package criteria

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxCriterionThreshold(t *testing.T) {
	// ‖(A_kk)⁻¹‖₁ = 0.5 → ‖A_kk⁻¹‖⁻¹ = 2. With α = 1 the LU step is allowed
	// iff the largest off-diagonal tile norm is ≤ 2.
	in := &Input{InvDiagNorm1: 0.5, OffDiagTileNorms: []float64{1.5, 1.9}}
	if !(Max{1}).Decide(in) {
		t.Fatal("Max should accept: 1·2 ≥ 1.9")
	}
	in.OffDiagTileNorms = []float64{2.5}
	if (Max{1}).Decide(in) {
		t.Fatal("Max should reject: 1·2 < 2.5")
	}
	if !(Max{2}).Decide(in) {
		t.Fatal("Max with α=2 should accept: 2·2 ≥ 2.5")
	}
}

func TestSumStricterThanMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		norms := make([]float64, n)
		for i := range norms {
			norms[i] = rng.Float64() * 10
		}
		inv := rng.Float64() + 0.1
		alpha := rng.Float64() * 5
		in := &Input{InvDiagNorm1: inv, OffDiagTileNorms: norms}
		// Whenever Sum accepts, Max must accept too (Σ ≥ max).
		if (Sum{alpha}).Decide(in) && !(Max{alpha}).Decide(in) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMonotoneInAlpha(t *testing.T) {
	// A larger α can only turn QR decisions into LU decisions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		norms := []float64{rng.Float64() * 10, rng.Float64() * 10}
		in := &Input{InvDiagNorm1: rng.Float64() + 0.05, OffDiagTileNorms: norms}
		a1 := rng.Float64() * 3
		a2 := a1 + rng.Float64()*3
		for _, pair := range [][2]Criterion{{Max{a1}, Max{a2}}, {Sum{a1}, Sum{a2}}} {
			if pair[0].Decide(in) && !pair[1].Decide(in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiagonallyDominantAlwaysLUForSum(t *testing.T) {
	// Block diagonal dominance: ‖A_kk⁻¹‖⁻¹ ≥ Σ ‖A_ik‖ ⇒ Sum with α = 1
	// accepts (§III-B).
	in := &Input{InvDiagNorm1: 1.0 / 10.0, OffDiagTileNorms: []float64{3, 3, 3.5}}
	if !(Sum{1}).Decide(in) {
		t.Fatal("Sum α=1 must accept a block diagonally dominant panel")
	}
}

func TestSingularDiagonalForcesQR(t *testing.T) {
	in := &Input{InvDiagNorm1: math.Inf(1), OffDiagTileNorms: []float64{0.1}}
	if (Max{1e9}).Decide(in) || (Sum{1e9}).Decide(in) {
		t.Fatal("singular diagonal tile must force a QR step")
	}
}

func TestAlphaInfinityAlwaysLU(t *testing.T) {
	in := &Input{InvDiagNorm1: math.Inf(1), OffDiagTileNorms: []float64{1e30}}
	if !(Max{math.Inf(1)}).Decide(in) || !(Sum{math.Inf(1)}).Decide(in) {
		t.Fatal("α = ∞ must deactivate the criterion")
	}
	if !(MUMPS{math.Inf(1)}).Decide(&Input{Pivots: []float64{0}, AwayMax: []float64{1}, LocalMax: []float64{1}}) {
		t.Fatal("MUMPS with α = ∞ must accept")
	}
}

func TestAlphaZeroAlwaysQRWithEmptyPanel(t *testing.T) {
	in := &Input{InvDiagNorm1: 0.1, OffDiagTileNorms: nil}
	if (Max{0}).Decide(in) || (Sum{0}).Decide(in) {
		t.Fatal("α = 0 must force QR even on the last panel")
	}
	if !(Max{1}).Decide(in) {
		t.Fatal("a panel with no sub-diagonal tiles is safe for LU when α > 0")
	}
}

func TestMUMPSAcceptsBenignPanel(t *testing.T) {
	// No growth locally (pivot == local max) and away max below pivots.
	in := &Input{
		Pivots:   []float64{2, 2, 2},
		LocalMax: []float64{2, 2, 2},
		AwayMax:  []float64{1, 1, 1},
	}
	if !(MUMPS{1}).Decide(in) {
		t.Fatal("MUMPS should accept a benign panel")
	}
}

func TestMUMPSRejectsLargeAway(t *testing.T) {
	in := &Input{
		Pivots:   []float64{2, 2, 2},
		LocalMax: []float64{2, 2, 2},
		AwayMax:  []float64{1, 5, 1},
	}
	if (MUMPS{1}).Decide(in) {
		t.Fatal("MUMPS must reject when an away column dominates its pivot")
	}
	if !(MUMPS{3}).Decide(in) {
		t.Fatal("MUMPS with a looser α should accept")
	}
}

func TestMUMPSGrowthScalesEstimate(t *testing.T) {
	// Column 0 grew by 4 locally (pivot 4 vs initial local max 1): the away
	// entry is extrapolated to away·growth = 2·4 = 8 > α·pivot = 4 → reject.
	in := &Input{
		Pivots:   []float64{4},
		LocalMax: []float64{1},
		AwayMax:  []float64{2},
	}
	if (MUMPS{1}).Decide(in) {
		t.Fatal("MUMPS must scale the away estimate by the observed growth")
	}
	// With a smaller away entry (α·local_max ≥ away_max) it accepts.
	in.AwayMax = []float64{1}
	if !(MUMPS{1}).Decide(in) {
		t.Fatal("MUMPS should accept when α·local_max ≥ away_max")
	}
	// Without any away mass it always accepts.
	in.AwayMax = []float64{0}
	if !(MUMPS{1}).Decide(in) {
		t.Fatal("MUMPS with empty away columns must accept")
	}
}

func TestMUMPSReducesToColumnMaxComparison(t *testing.T) {
	// For positive pivots the test is equivalent to α·local_max(j) ≥
	// away_max(j), independent of the pivot value.
	for _, pivot := range []float64{0.01, 1, 100} {
		in := &Input{
			Pivots:   []float64{pivot},
			LocalMax: []float64{2},
			AwayMax:  []float64{3},
		}
		if (MUMPS{1}).Decide(in) {
			t.Fatal("α·local < away must reject regardless of pivot")
		}
		if !(MUMPS{2}).Decide(in) {
			t.Fatal("α·local ≥ away must accept regardless of pivot")
		}
	}
}

func TestMUMPSZeroLocalMaxGuard(t *testing.T) {
	in := &Input{
		Pivots:   []float64{1, 1},
		LocalMax: []float64{0, 1}, // empty local column: growth undefined
		AwayMax:  []float64{0.5, 0.5},
	}
	if !(MUMPS{1}).Decide(in) {
		t.Fatal("zero local max must not poison the growth product")
	}
}

// TestNonFiniteInputsForceQR is the regression table for the maxOf NaN bug:
// a NaN (or ±Inf, or negative garbage) in any criterion input must force the
// QR step for Max, Sum and MUMPS — at every α, including α = ∞ — because a
// panel containing NaN that passes the criterion would take an unstable LU
// step that Sum (where NaN propagates into the sum) already refused.
func TestNonFiniteInputsForceQR(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// A benign baseline every criterion accepts with α = 2.
	benign := func() *Input {
		return &Input{
			InvDiagNorm1:     0.5, // ‖A_kk⁻¹‖⁻¹ = 2
			OffDiagTileNorms: []float64{1.0, 1.5},
			Pivots:           []float64{2, 2},
			LocalMax:         []float64{2, 2},
			AwayMax:          []float64{1, 1},
		}
	}
	for _, c := range []Criterion{Max{2}, Sum{2}, MUMPS{2}} {
		if !c.Decide(benign()) {
			t.Fatalf("%s must accept the benign baseline", c.Name())
		}
	}

	cases := []struct {
		name   string
		mutate func(*Input)
	}{
		{"NaN tile norm", func(in *Input) { in.OffDiagTileNorms[1] = nan }},
		{"+Inf tile norm", func(in *Input) { in.OffDiagTileNorms[0] = inf }},
		{"-Inf tile norm", func(in *Input) { in.OffDiagTileNorms[0] = -inf }},
		{"negative tile norm", func(in *Input) { in.OffDiagTileNorms[0] = -3 }},
		{"NaN inv-norm", func(in *Input) { in.InvDiagNorm1 = nan }},
		{"negative inv-norm", func(in *Input) { in.InvDiagNorm1 = -1 }},
	}
	// invNorm = +Inf is not garbage: it is the documented "exactly singular
	// diagonal tile" signal. It forces QR at every finite α but is overridden
	// by α = ∞ (TestAlphaInfinityAlwaysLU pins that semantic), so it gets its
	// own finite-α-only case below.
	finiteAlphaCases := []struct {
		name   string
		mutate func(*Input)
	}{
		{"+Inf inv-norm (singular diagonal)", func(in *Input) { in.InvDiagNorm1 = inf }},
	}
	mumpsCases := []struct {
		name   string
		mutate func(*Input)
	}{
		{"NaN pivot", func(in *Input) { in.Pivots[0] = nan }},
		{"+Inf pivot", func(in *Input) { in.Pivots[1] = inf }},
		{"negative pivot", func(in *Input) { in.Pivots[0] = -1 }},
		{"NaN local max", func(in *Input) { in.LocalMax[1] = nan }},
		{"+Inf local max", func(in *Input) { in.LocalMax[0] = inf }},
		{"-Inf local max", func(in *Input) { in.LocalMax[0] = -inf }},
		{"NaN away max", func(in *Input) { in.AwayMax[0] = nan }},
		{"+Inf away max", func(in *Input) { in.AwayMax[1] = inf }},
		{"-Inf away max", func(in *Input) { in.AwayMax[1] = -inf }},
	}

	alphas := []float64{0.5, 2, 1e9, inf}
	for _, tc := range cases {
		for _, alpha := range alphas {
			for _, c := range []Criterion{Max{alpha}, Sum{alpha}} {
				in := benign()
				tc.mutate(in)
				if c.Decide(in) {
					t.Errorf("%s(α=%g) accepted an LU step with %s", c.Name(), alpha, tc.name)
				}
			}
		}
	}
	for _, tc := range finiteAlphaCases {
		for _, alpha := range []float64{0.5, 2, 1e9} {
			for _, c := range []Criterion{Max{alpha}, Sum{alpha}} {
				in := benign()
				tc.mutate(in)
				if c.Decide(in) {
					t.Errorf("%s(α=%g) accepted an LU step with %s", c.Name(), alpha, tc.name)
				}
			}
		}
	}
	for _, tc := range mumpsCases {
		for _, alpha := range alphas {
			in := benign()
			tc.mutate(in)
			if (MUMPS{alpha}).Decide(in) {
				t.Errorf("mumps(α=%g) accepted an LU step with %s", alpha, tc.name)
			}
		}
	}
	// NaN pivots also reach Max/Sum indirectly through the inv-norm estimate
	// of a poisoned diagonal tile; the estimate paths are covered above. But
	// the MUMPS-only inputs must not confuse Max/Sum: a NaN pivot with
	// finite norms leaves Max/Sum decisions unchanged.
	in := benign()
	in.Pivots[0] = nan
	if !(Max{2}).Decide(in) || !(Sum{2}).Decide(in) {
		t.Error("Max/Sum must ignore the MUMPS-only pivot inputs")
	}
}

// TestMaxOfPropagatesPoison pins the maxOf fix directly: NaN anywhere in the
// list must not be dropped by the comparison loop.
func TestMaxOfPropagatesPoison(t *testing.T) {
	for _, xs := range [][]float64{
		{math.NaN()},
		{1, math.NaN(), 3},
		{5, 6, math.NaN()},
		{math.Inf(1), 1},
		{1, math.Inf(-1)},
		{-2, 1},
	} {
		if !math.IsNaN(maxOf(xs)) {
			t.Errorf("maxOf(%v) = %g, want NaN", xs, maxOf(xs))
		}
	}
	if got := maxOf([]float64{1, 4, 2}); got != 4 {
		t.Errorf("maxOf finite = %g, want 4", got)
	}
	if got := maxOf(nil); got != 0 {
		t.Errorf("maxOf(nil) = %g, want 0", got)
	}
}

func TestRandomCriterionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := &Input{Rng: rng}
	for _, alpha := range []float64{0, 25, 50, 100} {
		c := Random{alpha}
		hits := 0
		const trials = 10000
		for i := 0; i < trials; i++ {
			if c.Decide(in) {
				hits++
			}
		}
		rate := float64(hits) / trials * 100
		if math.Abs(rate-alpha) > 2.5 {
			t.Fatalf("Random α=%g produced %g%% LU steps", alpha, rate)
		}
	}
}

func TestAlwaysNever(t *testing.T) {
	if !(Always{}).Decide(nil) || (Never{}).Decide(nil) {
		t.Fatal("Always/Never broken")
	}
}

func TestGrowthBounds(t *testing.T) {
	if MaxGrowthBound(1, 10) != 512 { // 2^9
		t.Fatalf("MaxGrowthBound(1,10) = %g", MaxGrowthBound(1, 10))
	}
	if SumGrowthBound(7) != 7 {
		t.Fatal("SumGrowthBound wrong")
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"max", "sum", "mumps", "random", "alwayslu", "lu", "alwaysqr", "qr", "hqr"} {
		c, err := Parse(name, 1)
		if err != nil || c == nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
	}
	if _, err := Parse("bogus", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestNames(t *testing.T) {
	for _, c := range []Criterion{Max{1}, Sum{1}, MUMPS{1}, Random{1}, Always{}, Never{}} {
		if c.Name() == "" {
			t.Fatal("empty criterion name")
		}
	}
}

// TestMargins checks the Margin output field agrees with the decision
// (margin ≤ 1 ⇔ LU) and encodes the documented edge cases.
func TestMargins(t *testing.T) {
	in := func() *Input {
		return &Input{
			InvDiagNorm1:     0.5, // ‖A_kk⁻¹‖₁ = 0.5 → threshold α·2
			OffDiagTileNorms: []float64{1, 4},
			LocalMax:         []float64{2, 2},
			AwayMax:          []float64{1, 1},
			Pivots:           []float64{2, 2},
		}
	}
	cases := []struct {
		c      Criterion
		margin float64
		lu     bool
	}{
		{Max{Alpha: 100}, 4 * 0.5 / 100, true},
		{Max{Alpha: 1}, 2.0, false},
		{Max{Alpha: math.Inf(1)}, 0, true},
		{Max{Alpha: 0}, math.Inf(1), false},
		{Sum{Alpha: 100}, 5 * 0.5 / 100, true},
		{MUMPS{Alpha: 10}, 0.05, true}, // worst column: est=1·1 vs α·2
		{MUMPS{Alpha: 0.01}, math.Inf(1), false},
		{Always{}, 0, true},
		{Never{}, math.Inf(1), false},
	}
	for _, tc := range cases {
		i := in()
		got := tc.c.Decide(i)
		if got != tc.lu {
			t.Errorf("%s: decision %v, want %v", tc.c.Name(), got, tc.lu)
		}
		if tc.lu != (i.Margin <= 1) {
			t.Errorf("%s: margin %g disagrees with decision %v", tc.c.Name(), i.Margin, got)
		}
		if !math.IsInf(tc.margin, 1) && math.Abs(i.Margin-tc.margin) > 1e-12 {
			t.Errorf("%s: margin %g, want %g", tc.c.Name(), i.Margin, tc.margin)
		}
		if math.IsInf(tc.margin, 1) && !math.IsInf(i.Margin, 1) {
			t.Errorf("%s: margin %g, want +Inf", tc.c.Name(), i.Margin)
		}
	}
	// Random reports NaN: no numeric margin.
	ri := in()
	ri.Rng = rand.New(rand.NewSource(1))
	Random{Alpha: 50}.Decide(ri)
	if !math.IsNaN(ri.Margin) {
		t.Errorf("random margin %g, want NaN", ri.Margin)
	}
	// Poisoned data forces +Inf margins.
	pi := in()
	pi.OffDiagTileNorms = []float64{math.NaN()}
	Max{Alpha: 100}.Decide(pi)
	if !math.IsInf(pi.Margin, 1) {
		t.Errorf("poisoned max margin %g, want +Inf", pi.Margin)
	}
}
