// Package criteria implements the robustness criteria of §III of the paper:
// the per-step predicates that decide whether the hybrid algorithm may take
// a cheap LU step or must fall back to a stable QR step.
//
// Each criterion is a pure predicate over the panel data collected at step k
// (tile norms, column maxima, the factored diagonal tile) and a threshold α.
// The data collection and the Bruck all-reduce that shares it across nodes
// live in the core and dist packages; keeping the predicates pure makes the
// growth-bound properties directly testable.
package criteria

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Input carries everything a criterion may inspect at step k. All fields are
// identical on every node after the all-reduce, so every node reaches the
// same decision without further communication.
type Input struct {
	Step int
	// InvDiagNorm1 is the estimate of ‖(A_kk^(k))⁻¹‖₁ computed from the LU
	// factors of the diagonal tile after pivoting inside the diagonal domain
	// (§III-A). math.Inf(1) signals an exactly singular diagonal tile.
	InvDiagNorm1 float64
	// OffDiagTileNorms holds ‖A_ik‖₁ for every panel tile below the diagonal
	// (i > k), measured before the trial factorization.
	OffDiagTileNorms []float64
	// LocalMax / AwayMax hold, per panel column j, the largest |a_ij| over
	// the diagonal-domain tiles resp. the off-domain tiles, measured before
	// the trial factorization (MUMPS criterion, §III-C).
	LocalMax, AwayMax []float64
	// Pivots holds |U_jj| from the LU factorization with partial pivoting of
	// the diagonal domain.
	Pivots []float64
	// Rng drives the Random criterion; the caller seeds it per run so that
	// decisions are reproducible.
	Rng *rand.Rand

	// Margin is an output field: Decide writes the ratio of its decision
	// quantity to the α-scaled threshold, so margin ≤ 1 means "LU step" and
	// the distance below 1 measures how comfortably the criterion passed.
	// 0 is maximal comfort, +Inf a forced QR step, and NaN "no numeric
	// margin" (the Random criterion). The mixed-precision layer reads it to
	// decide when an LU step is comfortable enough for float32 arithmetic.
	Margin float64
}

// Criterion decides, at each panel step, between an LU step (true) and a QR
// step (false).
type Criterion interface {
	Name() string
	Decide(in *Input) bool
}

// Max is the criterion of §III-A:
//
//	α · ‖(A_kk)⁻¹‖₁⁻¹ ≥ max_{i>k} ‖A_ik‖₁
//
// with tile-norm growth bounded by (1+α)^{n−1}.
type Max struct{ Alpha float64 }

// Name implements Criterion.
func (c Max) Name() string { return "max" }

// Decide implements Criterion.
func (c Max) Decide(in *Input) bool {
	var lu bool
	lu, in.Margin = normTest(c.Alpha, in.InvDiagNorm1, maxOf(in.OffDiagTileNorms))
	return lu
}

// Sum is the stricter criterion of §III-B:
//
//	α · ‖(A_kk)⁻¹‖₁⁻¹ ≥ Σ_{i>k} ‖A_ik‖₁
//
// with linear growth (bound n) for α = 1; always satisfied on block
// diagonally dominant matrices for α ≥ 1.
type Sum struct{ Alpha float64 }

// Name implements Criterion.
func (c Sum) Name() string { return "sum" }

// Decide implements Criterion.
func (c Sum) Decide(in *Input) bool {
	s := 0.0
	for _, v := range in.OffDiagTileNorms {
		s += v
	}
	var lu bool
	lu, in.Margin = normTest(c.Alpha, in.InvDiagNorm1, s)
	return lu
}

// maxOf returns the largest entry, poisoning the result on unusable inputs:
// a comparison-based max with `v > m` silently skips NaN (every comparison
// with NaN is false) and negative garbage (m starts at 0), letting a panel
// whose tile norm is NaN satisfy the Max criterion and take an unstable LU
// step. Any value a 1-norm cannot produce — NaN, ±Inf, negative — turns the
// result into NaN so normTest forces a QR step, the same behaviour Sum
// gets for free from addition.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return math.NaN()
		}
		if v > m {
			m = v
		}
	}
	return m
}

// normTest is the test of Max and Sum, α·‖A_kk⁻¹‖₁⁻¹ ≥ rhs, and its
// margin rhs·‖A_kk⁻¹‖₁/α, the ratio of the observed norm quantity to the
// α-scaled bound. Every forced-QR input has margin +Inf and every
// unconditional-LU input margin 0, so margin ≤ 1 agrees with the decision
// (up to rounding in the strict-inequality regime, where the decision
// itself stays authoritative).
func normTest(alpha, invNorm, rhs float64) (lu bool, margin float64) {
	// Non-finite panel data — a NaN or infinite tile norm, or a norm the
	// kernels could never produce (negative) — means the trial measurements
	// are unusable: force the unconditionally stable QR step, even when
	// α = ∞ disables the threshold test. Always{} remains the only way to
	// take an LU step blindly.
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) || rhs < 0 {
		return false, math.Inf(1)
	}
	// A NaN (or negative) inverse-norm estimate means the trial
	// factorization itself was poisoned — unusable at every α, unlike
	// invNorm = +Inf, which is the documented "exactly singular diagonal"
	// signal that α = ∞ deliberately overrides below.
	if math.IsNaN(invNorm) || invNorm < 0 {
		return false, math.Inf(1)
	}
	if rhs == 0 {
		// Nothing below the diagonal (last step, or a zero panel): an LU
		// step cannot cause growth, but honor α = 0 as "always QR".
		if alpha > 0 {
			return true, 0
		}
		return false, math.Inf(1)
	}
	if math.IsInf(alpha, 1) {
		return true, 0
	}
	// A singular diagonal tile, or α ≤ 0, whose threshold no positive rhs
	// meets.
	if alpha <= 0 || invNorm == 0 || math.IsInf(invNorm, 1) {
		return false, math.Inf(1)
	}
	return alpha*(1/invNorm) >= rhs, rhs * invNorm / alpha
}

// MUMPS is the scalar criterion of §III-C, adapted from the pivot-quality
// heuristic of the MUMPS solver: the growth observed on the local columns of
// the diagonal domain is used to extrapolate the off-domain column maxima,
//
//	estimate_max(j) = away_max(j) · growth(j),
//	growth(j) = pivot(j) / local_max(j),
//
// and the LU step is accepted iff α·pivot(j) ≥ estimate_max(j) for every j:
// the largest off-domain entry of column j, had it grown the way the local
// part of column j grew by step j, must not dominate the pivot by more than
// the threshold.
//
// Interpretation note (documented in DESIGN.md): the paper phrases the
// estimate as a step-by-step multiplicative update of estimate_max by
// growth_factor(i). Since growth_factor(i) = pivot(i)/local_max(i) is the
// *cumulative* growth of column i (current pivot vs initial column
// maximum), re-multiplying the estimate by it at every step compounds
// cumulative ratios and diverges like Π_i g_i for any matrix whose columns
// grow at all — no α works at any scale. The implementation therefore
// applies each column's observed growth once. A corollary (α·local_max(j) ≥
// away_max(j) after cancellation, for positive pivots) is that the criterion
// cannot see growth created during the elimination, which reproduces the
// paper's own finding that MUMPS misses the bad steps of the Wilkinson and
// Foster matrices (§V-C).
type MUMPS struct{ Alpha float64 }

// Name implements Criterion.
func (c MUMPS) Name() string { return "mumps" }

// Decide implements Criterion.
func (c MUMPS) Decide(in *Input) bool {
	// Unusable pivot or column-max data (NaN from a poisoned panel, ±Inf
	// from overflowed growth, negative garbage) forces QR before the α
	// shortcuts: `α·pivot < est` is false when pivot is NaN, so without
	// this scan a NaN pivot would silently pass the per-column test.
	in.Margin = math.Inf(1)
	if !allFiniteNonNeg(in.Pivots) || !allFiniteNonNeg(in.LocalMax) || !allFiniteNonNeg(in.AwayMax) {
		return false
	}
	if math.IsInf(c.Alpha, 1) {
		in.Margin = 0
		return true
	}
	if c.Alpha <= 0 {
		return false
	}
	// Margin: the worst column's est / (α·pivot) ratio; ≤ 1 iff every
	// per-column test passes.
	margin := 0.0
	for j := range in.Pivots {
		away := 0.0
		if j < len(in.AwayMax) {
			away = in.AwayMax[j]
		}
		growth := 1.0
		if j < len(in.LocalMax) && in.LocalMax[j] > 0 {
			growth = in.Pivots[j] / in.LocalMax[j]
		}
		est := away * growth
		if math.IsNaN(est) {
			return false
		}
		switch {
		case est == 0:
			// No off-domain mass in this column: maximal comfort.
		case in.Pivots[j] == 0:
			margin = math.Inf(1)
		default:
			if m := est / (c.Alpha * in.Pivots[j]); m > margin {
				margin = m
			}
		}
		if c.Alpha*in.Pivots[j] < est {
			return false
		}
	}
	in.Margin = margin
	return true
}

// allFiniteNonNeg reports whether every entry is a usable magnitude: finite
// and ≥ 0 (a NaN fails the comparison and is rejected too).
func allFiniteNonNeg(xs []float64) bool {
	for _, v := range xs {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// Random chooses an LU step with probability α% — the control experiment of
// Figure 2's fourth row, used to isolate the effect of the LU:QR ratio from
// the criterion's selectivity.
type Random struct{ Alpha float64 }

// Name implements Criterion.
func (c Random) Name() string { return "random" }

// Decide implements Criterion.
func (c Random) Decide(in *Input) bool {
	if in.Rng == nil {
		panic("criteria: Random criterion needs Input.Rng")
	}
	in.Margin = math.NaN() // a coin flip has no numeric comfort margin
	return in.Rng.Float64()*100 < c.Alpha
}

// Always takes an LU step at every panel (the α = ∞ configuration: LU with
// pivoting restricted to the diagonal domain).
type Always struct{}

// Name implements Criterion.
func (Always) Name() string { return "alwayslu" }

// Decide implements Criterion.
func (Always) Decide(in *Input) bool {
	if in != nil {
		in.Margin = 0
	}
	return true
}

// Never takes a QR step at every panel (the α = 0 configuration, whose
// stability matches HQR and whose cost exposes the decision-path overhead).
type Never struct{}

// Name implements Criterion.
func (Never) Name() string { return "alwaysqr" }

// Decide implements Criterion.
func (Never) Decide(in *Input) bool {
	if in != nil {
		in.Margin = math.Inf(1)
	}
	return false
}

// MaxGrowthBound returns the tile-norm growth bound (1+α)^{n−1} of the Max
// criterion (§III-A) for an n×n tiled matrix.
func MaxGrowthBound(alpha float64, n int) float64 {
	return math.Pow(1+alpha, float64(n-1))
}

// SumGrowthBound returns the growth bound of the Sum criterion with α = 1:
// linear in the number of tiles (§III-B).
func SumGrowthBound(n int) float64 { return float64(n) }

// Parse builds a criterion from a name and a threshold, for CLI use. Names:
// max, sum, mumps, random, alwayslu (or "lu"), alwaysqr (or "qr", "hqr").
func Parse(name string, alpha float64) (Criterion, error) {
	switch name {
	case "max":
		return Max{alpha}, nil
	case "sum":
		return Sum{alpha}, nil
	case "mumps":
		return MUMPS{alpha}, nil
	case "random":
		return Random{alpha}, nil
	case "alwayslu", "lu":
		return Always{}, nil
	case "alwaysqr", "qr", "hqr":
		return Never{}, nil
	}
	return nil, fmt.Errorf("criteria: unknown criterion %q (alpha=%s)", name, strconv.FormatFloat(alpha, 'g', -1, 64))
}
