package core

import (
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
)

func init() {
	gob.Register(flipCriterion{}) // so serialized configs round-trip in tests
}

// flipCriterion takes an LU step everywhere but alternates the reported
// margin between maximally comfortable and merely passing, so an auto-
// precision run flips float32 → float64 → float32 mid-factorization: every
// resident tile is demoted at each odd step and re-promoted at the next even
// one — real epoch boundaries, not just one epoch per run.
type flipCriterion struct{}

func (flipCriterion) Name() string { return "flip" }

func (flipCriterion) Decide(in *criteria.Input) bool {
	if in.Step%2 == 0 {
		in.Margin = 0 // comfortable: licenses float32 for the step
	} else {
		in.Margin = 1 // LU step, but no float32 license
	}
	return true
}

// expectTilesBitEqual asserts every factored tile of got equals want
// bit for bit.
func expectTilesBitEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for i := 0; i < want.Factored.MT; i++ {
		for j := 0; j < want.Factored.NT; j++ {
			g, w := got.Factored.Tile(i, j), want.Factored.Tile(i, j)
			for r := 0; r < w.Rows; r++ {
				for c := 0; c < w.Cols; c++ {
					a, b := g.At(r, c), w.At(r, c)
					if a != b && !(a != a && b != b) {
						t.Fatalf("%s: tile (%d,%d) entry (%d,%d): %v != %v", label, i, j, r, c, a, b)
					}
				}
			}
		}
	}
}

// TestEpochRoundTripMatchesPerTaskPath is the resident path's exactness
// contract on its accepted branch: a run with float32 epochs opened and
// closed mid-factorization (f32 → f64 → f32 flips) must stay within the
// float32 accuracy bound of the pure-f64 run under the same criterion —
// max|F_resident − F_f64| ≤ n·u32·max|F_f64| with u32 = 2⁻²⁴ — and refine
// back into the HPL acceptance band. A resident kernel that computes the
// wrong thing, or an epoch boundary that loses more than a rounding, breaks
// the bound by orders of magnitude.
func TestEpochRoundTripMatchesPerTaskPath(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	n := 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	cfg := Config{Alg: LUQR, NB: 16, Criterion: flipCriterion{}, Precision: PrecisionAuto}

	ref := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Criterion: flipCriterion{}})
	res := runOn(t, a, b, cfg)

	// The schedule must actually flip: f32 steps interleaved with f64 ones.
	if res.Report.F32Steps == 0 || res.Report.F32Steps == res.Report.NT {
		t.Fatalf("no precision flips: %d f32 steps of %d", res.Report.F32Steps, res.Report.NT)
	}
	if res.Report.Demotions != 0 {
		t.Fatalf("unexpected excursion demotions: %d", res.Report.Demotions)
	}
	// Epoch accounting: tiles entered residency and conversions ran; the
	// f64 run never built the store.
	if res.Report.F32Epochs == 0 || res.Report.Conversions == 0 {
		t.Fatalf("resident run recorded no epochs/conversions: %d/%d", res.Report.F32Epochs, res.Report.Conversions)
	}
	if ref.Report.F32Epochs != 0 || ref.Report.Conversions != 0 {
		t.Fatalf("f64 run recorded residency counters: %d/%d", ref.Report.F32Epochs, ref.Report.Conversions)
	}

	maxRef, maxDiff := 0.0, 0.0
	for i := 0; i < ref.Factored.MT; i++ {
		for j := 0; j < ref.Factored.NT; j++ {
			d := mat.MaxDiff(res.Factored.Tile(i, j), ref.Factored.Tile(i, j))
			if math.IsNaN(d) {
				t.Fatalf("tile (%d,%d): NaN in the factors", i, j)
			}
			maxDiff = math.Max(maxDiff, d)
			maxRef = math.Max(maxRef, ref.Factored.Tile(i, j).NormMax())
		}
	}
	const u32 = 0x1p-24
	bound := float64(n) * u32 * maxRef
	if maxDiff > bound {
		t.Fatalf("max|F_resident - F_f64| = %g > n·u32·max|F_f64| = %g", maxDiff, bound)
	}
	t.Logf("max|F_resident - F_f64| = %.2f u32·max|F_f64| (bound %d)", maxDiff/(u32*maxRef), n)
	if math.IsNaN(res.Report.HPL3) || res.Report.HPL3 > refineHPL3Tol {
		t.Fatalf("resident flip run HPL3 = %g > %g", res.Report.HPL3, refineHPL3Tol)
	}
}

// TestAllDemoteBitIdenticalToPureF64 is the contract's rejected branch: on a
// matrix whose entries overflow float32, every resident task promotes its
// tiles, fails the excursion scan, rolls the images back and re-runs at
// float64 — and the factors must come out bit-identical to a pure-f64 run,
// across repeated promote/discard epochs.
func TestAllDemoteBitIdenticalToPureF64(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	n := 64
	b := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{HQR, LUQR} {
		a := matgen.DiagDominant(n, rng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)*1e200) // far past float32 overflow
			}
		}
		ref := runOn(t, a, b, Config{Alg: alg, NB: 16})
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Precision: PrecisionF32})
		if res.Report.Demotions == 0 {
			t.Fatalf("%v: no demotions on a float32-overflowing matrix", alg)
		}
		if alg == HQR {
			// HQR keeps the step f32 flags, so every task individually
			// promotes, rejects and demotes — the counters must show it.
			if res.Report.F32Epochs == 0 || res.Report.Conversions == 0 {
				t.Fatalf("HQR: demoting run recorded no epochs/conversions: %d/%d",
					res.Report.F32Epochs, res.Report.Conversions)
			}
		}
		expectTilesBitEqual(t, alg.String(), res, ref)
	}
}

// TestWarmRestartReplayWithEpochs serializes an epoch-bearing factorization,
// restores it, and replays a fresh right-hand side: the stored factors are
// pure float64 (the run flushed every image before serialization), so the
// replayed solve must be bit-identical to the live Result's.
func TestWarmRestartReplayWithEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Criterion: flipCriterion{}, Precision: PrecisionAuto})
	if res.Report.F32Epochs == 0 {
		t.Fatal("run carried no float32 epochs")
	}

	blob, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DecodeFactorization(blob)
	if err != nil {
		t.Fatal(err)
	}

	b2 := matgen.RandomVector(n, rng)
	x1, err := res.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := warm.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] && !(x1[i] != x1[i] && x2[i] != x2[i]) {
			t.Fatalf("warm replay diverges at x[%d]: %v != %v", i, x2[i], x1[i])
		}
	}
}
