// Package luqr is a pure-Go implementation of the hybrid LU-QR dense linear
// solvers of Faverge, Herrmann, Langou, Lowery, Robert and Dongarra,
// "Designing LU-QR hybrid solvers for performance and stability"
// (IPDPS 2014, arXiv:1401.5522).
//
// The hybrid algorithm factors a tiled matrix step by step, choosing at
// every panel between a cheap LU elimination (pivoting confined to the
// diagonal domain) and an unconditionally stable QR elimination, driven by
// a robustness criterion with a tunable threshold α:
//
//	a := luqr.NewMatrix(n, n)        // fill a ...
//	b := make([]float64, n)          // fill b ...
//	res, err := luqr.Solve(a, b, luqr.Config{
//		Alg:       luqr.AlgLUQR,
//		NB:        40,
//		Grid:      luqr.NewGrid(4, 4),
//		Criterion: luqr.MaxCriterion(100),
//	})
//	// res.X is the solution; res.Report carries LU/QR step counts, the
//	// HPL3 backward error, the growth factor, and timings.
//
// The package is a facade over the implementation packages: the dense and
// tiled kernels, the dataflow runtime with dynamic task-graph unfolding,
// the robustness criteria, the comparison algorithms (LU NoPiv, LU IncPiv,
// LUPP, HQR, and CALU with tournament pivoting), the test-matrix
// generators, and the discrete-event performance simulator. See README.md
// and DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction record.
package luqr

import (
	"fmt"
	"math/rand"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/sim"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// Matrix is a dense row-major matrix; element (i, j) is Data[i*Stride+j].
type Matrix = mat.Matrix

// NewMatrix allocates a zeroed rows×cols dense matrix.
func NewMatrix(rows, cols int) *Matrix { return mat.New(rows, cols) }

// MatrixFromSlice builds a rows×cols matrix from row-major data (copied).
func MatrixFromSlice(rows, cols int, data []float64) *Matrix {
	return mat.FromSlice(rows, cols, data)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix { return mat.Identity(n) }

// Grid is a virtual p×q process grid; tiles are distributed 2-D
// block-cyclically over it and it determines the diagonal domains of the
// hybrid's LU steps.
type Grid = tile.Grid

// NewGrid returns a p×q grid.
func NewGrid(p, q int) Grid { return tile.NewGrid(p, q) }

// Config configures a factorization (see the field docs on core.Config).
type Config = core.Config

// Result carries the solution, the factored tiles, the run report, and the
// stored transformations (Result.Solve solves further right-hand sides;
// Result.Refine performs iterative refinement).
type Result = core.Result

// Report summarizes a run: per-step LU/QR decisions, the HPL3 backward
// error, the element-growth factor, breakdown detection, and timings.
type Report = core.Report

// Algorithm selects a factorization algorithm.
type Algorithm = core.Algorithm

// The available algorithms.
const (
	// AlgLUQR is the paper's hybrid LU-QR algorithm.
	AlgLUQR = core.LUQR
	// AlgLUNoPiv is LU with pivoting confined to the diagonal tile.
	AlgLUNoPiv = core.LUNoPiv
	// AlgLUIncPiv is tiled LU with incremental (pairwise) pivoting.
	AlgLUIncPiv = core.LUIncPiv
	// AlgLUPP is LU with partial pivoting across the whole panel.
	AlgLUPP = core.LUPP
	// AlgHQR is the hierarchical tiled QR factorization.
	AlgHQR = core.HQR
	// AlgCALU is communication-avoiding LU with tournament pivoting.
	AlgCALU = core.CALU
	// AlgHLU is hierarchical LU with multiple eliminators per panel — the
	// §VII future-work prototype (pairwise-pivoting stability).
	AlgHLU = core.HLU
)

// LUVariant selects the LU-step formulation of the hybrid (§II-C).
type LUVariant = core.LUVariant

// The LU-step variants.
const (
	VariantA1 = core.VarA1
	VariantA2 = core.VarA2
	VariantB1 = core.VarB1
	VariantB2 = core.VarB2
)

// Scope selects the pivot-search region of the hybrid's LU steps.
type Scope = core.Scope

// The pivot scopes.
const (
	ScopeDomain = core.ScopeDomain
	ScopeTile   = core.ScopeTile
)

// Tree selects a QR-step reduction tree.
type Tree = tree.Tree

// The reduction-tree families.
const (
	TreeFlatTS    = tree.FlatTS
	TreeFlatTT    = tree.FlatTT
	TreeBinary    = tree.Binary
	TreeGreedy    = tree.Greedy
	TreeFibonacci = tree.Fibonacci
)

// Criterion decides, per panel step, between an LU and a QR elimination.
type Criterion = criteria.Criterion

// MaxCriterion accepts an LU step iff α·‖(A_kk)⁻¹‖₁⁻¹ ≥ max_{i>k}‖A_ik‖₁
// (growth bound (1+α)^{n−1} on tile norms).
func MaxCriterion(alpha float64) Criterion { return criteria.Max{Alpha: alpha} }

// SumCriterion accepts an LU step iff α·‖(A_kk)⁻¹‖₁⁻¹ ≥ Σ_{i>k}‖A_ik‖₁
// (linear growth for α = 1; always satisfied on block diagonally dominant
// matrices).
func SumCriterion(alpha float64) Criterion { return criteria.Sum{Alpha: alpha} }

// MUMPSCriterion accepts an LU step iff every local pivot dominates the
// growth-scaled off-domain column maximum: α·pivot(j) ≥
// away_max(j)·pivot(j)/local_max(j).
func MUMPSCriterion(alpha float64) Criterion { return criteria.MUMPS{Alpha: alpha} }

// RandomCriterion takes an LU step with probability α%% (seeded via
// Config.Seed) — the paper's control experiment.
func RandomCriterion(alphaPercent float64) Criterion { return criteria.Random{Alpha: alphaPercent} }

// AlwaysLU disables the criterion (α = ∞): every step is an LU step.
func AlwaysLU() Criterion { return criteria.Always{} }

// AlwaysQR forces a QR step everywhere (α = 0): HQR plus the decision path.
func AlwaysQR() Criterion { return criteria.Never{} }

// Solve factors A (augmented with b) with the configured algorithm and
// solves Ax = b. A and b are not modified; N need not be a multiple of
// Config.NB (the system is padded to the next tile boundary).
func Solve(a *Matrix, b []float64, cfg Config) (*Result, error) {
	return core.Run(a, b, cfg)
}

// GenerateMatrix builds one of the named test matrices: "random",
// "diagdom", or any Table III name (hilb, wilkinson, foster, fiedler, …).
// See SpecialMatrices for the full list.
func GenerateMatrix(name string, n int, rng *rand.Rand) (*Matrix, error) {
	ent, err := matgen.ByName(name)
	if err != nil {
		return nil, err
	}
	if n < ent.MinN {
		return nil, fmt.Errorf("luqr: matrix %q needs n >= %d, got %d", name, ent.MinN, n)
	}
	return ent.Gen(n, rng), nil
}

// SpecialMatrices returns the names and descriptions of the paper's special
// matrix set (Table III plus the Fiedler matrix of §V-C).
func SpecialMatrices() []struct{ Name, Desc string } {
	set := matgen.SpecialSet()
	out := make([]struct{ Name, Desc string }, len(set))
	for i, e := range set {
		out[i] = struct{ Name, Desc string }{e.Name, e.Desc}
	}
	return out
}

// RandSVD returns an n×n matrix with Haar-random singular vectors and a
// prescribed 2-norm condition number (geometric singular-value decay).
func RandSVD(n int, kappa float64, rng *rand.Rand) *Matrix {
	return matgen.RandSVD(n, kappa, matgen.SigmaGeometric, rng)
}

// HPL3 computes the High-Performance-Linpack backward-error metric
// ‖Ax−b‖∞ / (‖A‖∞‖x‖∞·ε·N) used throughout the paper's evaluation.
func HPL3(a *Matrix, x, b []float64) float64 { return mat.HPL3(a, x, b) }

// Machine is a distributed-platform model for the trace simulator.
type Machine = sim.Machine

// Dancer returns the model of the paper's 16-node evaluation platform.
func Dancer() Machine { return sim.Dancer() }

// SimResult summarizes a simulated execution of a recorded task trace.
type SimResult = sim.Result

// Simulate replays the task trace recorded by a Config{Trace: true} run
// (Result.Report.Trace) on the machine model and returns the simulated
// makespan and communication statistics.
func Simulate(trace []*runtime.TraceTask, m Machine) SimResult {
	return sim.Simulate(trace, m, nil)
}

// TraceDOT renders a recorded task trace as a Graphviz digraph (the
// paper's Figure 1 view), optionally clustered by node.
func TraceDOT(trace []*runtime.TraceTask, clusterByNode bool) string {
	return runtime.DOT(trace, clusterByNode)
}
