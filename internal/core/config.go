// Package core implements the paper's solvers on top of the dataflow
// runtime: the hybrid LU-QR algorithm (Algorithm 1, variant (A1) with
// diagonal-domain pivoting) and the comparison algorithms of §V-B — LU
// NoPiv, LU IncPiv (incremental/pairwise pivoting), LUPP (partial pivoting
// across the whole panel, the ScaLAPACK reference), and HQR (hierarchical
// tiled QR).
//
// Every algorithm is expressed as a dynamically unfolding task graph: panel
// steps submit their elimination and update tasks as decisions resolve,
// trailing-matrix tasks of different steps overlap freely, and the recorded
// trace drives the discrete-event performance simulation.
//
// A factorization is reusable: Run returns a Result that retains the
// factored tiles and per-step decisions, and Result.Solve /
// Result.SolveBatch replay the stored transformations on new right-hand
// sides in O(N²) — the "second pass" of §II-D.1 — without re-factoring.
// SolveBatch packs many right-hand sides as the columns of one tile.Vector
// and pays a single replay plus one block back-substitution for the whole
// batch; the service layer (internal/service) builds its factorization
// cache on exactly this property.
package core

import (
	"fmt"
	"runtime"

	"luqr/internal/criteria"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// Algorithm selects a factorization.
type Algorithm int

// The five algorithms compared in §V.
const (
	// LUQR is the hybrid LU-QR algorithm: at each step a robustness
	// criterion chooses between an LU step (pivoting confined to the
	// diagonal domain) and a QR step (hierarchical reduction trees).
	LUQR Algorithm = iota
	// LUNoPiv performs LU with pivoting only inside the diagonal tile —
	// fast, communication-free on the panel, and unstable in general.
	LUNoPiv
	// LUIncPiv performs incremental (pairwise) pivoting across the panel
	// tiles, as in the tiled LU of PLASMA — efficient but with compounding
	// growth.
	LUIncPiv
	// LUPP performs LU with partial pivoting across the whole panel — the
	// stable reference, paying a global pivot search and cross-node row
	// swaps at every step (the ScaLAPACK PDGETRF baseline).
	LUPP
	// HQR is the hierarchical tiled QR factorization of [8] — always
	// stable, twice the flops.
	HQR
	// CALU is communication-avoiding LU with tournament pivoting [14]
	// (§VI-D) — implemented here as an extension; the paper had no CALU
	// implementation to compare against.
	CALU
	// HLU is hierarchical LU with multiple eliminators per panel — a
	// prototype of the §VII future-work algorithm, reusing the QR step's
	// reduction trees with pairwise LU kernels. Pairwise-pivoting
	// stability; short critical path.
	HLU
)

func (a Algorithm) String() string {
	switch a {
	case LUQR:
		return "luqr"
	case LUNoPiv:
		return "lunopiv"
	case LUIncPiv:
		return "luincpiv"
	case LUPP:
		return "lupp"
	case HQR:
		return "hqr"
	case CALU:
		return "calu"
	case HLU:
		return "hlu"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// pairwise reports whether a runs the pairwise LU tree step: LU IncPiv and
// HLU.
func (a Algorithm) pairwise() bool { return a == LUIncPiv || a == HLU }

// ParseAlgorithm converts a CLI name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{LUQR, LUNoPiv, LUIncPiv, LUPP, HQR, CALU, HLU} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// LUVariant selects the formulation of the LU step (§II-A / §II-C). The
// paper evaluates (A1) only; the other variants are described in §II-C and
// implemented here as extensions.
type LUVariant int

const (
	// VarA1 factors the panel with LU and partial pivoting (restricted to
	// the configured Scope), applies L⁻¹P to row k, eliminates with U, and
	// updates with GEMM — the paper's evaluated variant.
	VarA1 LUVariant = iota
	// VarA2 factors the diagonal tile with QR instead: same dependencies
	// and update as (A1), Factor/Apply twice as expensive, but a rejected
	// trial is not discarded — the QR step reuses the factorization
	// (§II-C.1). Implies diagonal-tile pivot scope.
	VarA2
	// VarB1 is block LU (§II-C.2): Factor = LU of the diagonal tile,
	// Eliminate = A_ik·A_kk⁻¹, no Apply (row k untouched), Schur update
	// with the original row k. The result is block upper triangular, so the
	// solve performs a block back-substitution through the stored diagonal
	// factors. Implies diagonal-tile pivot scope.
	VarB1
	// VarB2 is block LU with a QR diagonal factorization: like (B1) with
	// Eliminate = (A_ik·R⁻¹)·Qᵀ, and the QR step reusing the trial
	// factorization as in (A2). Implies diagonal-tile pivot scope.
	VarB2
)

func (v LUVariant) String() string {
	switch v {
	case VarA1:
		return "a1"
	case VarA2:
		return "a2"
	case VarB1:
		return "b1"
	case VarB2:
		return "b2"
	}
	return fmt.Sprintf("LUVariant(%d)", int(v))
}

// ParseVariant converts a CLI name into an LUVariant.
func ParseVariant(s string) (LUVariant, error) {
	for _, v := range []LUVariant{VarA1, VarA2, VarB1, VarB2} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown LU-step variant %q", s)
}

// Precision selects where the factorization's flops run. The float64 tiles
// stay the master storage: float32 steps run the float32 instantiations of
// the kernels on resident tile images that are rounded from the tiles once
// per precision epoch and widened back before any float64 consumer reads
// them (DESIGN.md §11), so the factor layout, the serialization shape, and
// the replay path are identical at every setting.
type Precision int

const (
	// PrecisionF64 (the zero value) runs every kernel in float64.
	PrecisionF64 Precision = iota
	// PrecisionAuto makes precision a per-step decision: an LU step whose
	// criterion margin is at most DefaultF32Margin — the decision quantity
	// sits that far below the α threshold — runs its Eliminate and Update
	// kernels in float32; panels (the free float64 trial factors) and QR
	// steps stay float64. Any f32 excursion demotes the task back to f64 by
	// re-running it, so a bad panel is never accepted. An operator whose
	// max|a_ij| lies outside [1e8·FLT_MIN, MaxFloat32/1e8] runs every step
	// in float64: float32 would round it to subnormals or past its range.
	PrecisionAuto
	// PrecisionF32 forces every kernel — panels and QR steps included —
	// through the float32 path, with the same per-task excursion demotion.
	PrecisionF32
)

func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionAuto:
		return "auto"
	case PrecisionF32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision converts a CLI/API name into a Precision. The empty string
// is the float64 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "fp64", "double":
		return PrecisionF64, nil
	case "auto", "mixed":
		return PrecisionAuto, nil
	case "f32", "fp32", "single":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q", s)
}

// DefaultF32Margin is the criterion-margin ceiling below which PrecisionAuto
// runs an LU step's flops in float32: the decision quantity must sit at
// least two orders of magnitude under the α threshold.
const DefaultF32Margin = 0.01

// Scope selects where the LU step searches for pivots (§II-A).
type Scope int

const (
	// ScopeDomain pivots across all panel tiles local to the diagonal
	// node — the variant used in the paper's experiments. No inter-node
	// communication is needed.
	ScopeDomain Scope = iota
	// ScopeTile pivots only inside the diagonal tile, as LU NoPiv does.
	ScopeTile
)

// Config configures a factorization run.
type Config struct {
	Alg Algorithm
	// NB is the tile order; zero means the default, min(40, N), and a
	// negative one is an error. Run pads N to the next multiple of NB.
	NB int
	// Grid is the virtual process grid for the 2-D block-cyclic
	// distribution; it determines domains and communication accounting.
	Grid tile.Grid
	// Criterion drives the LU/QR choice for Alg == LUQR.
	Criterion criteria.Criterion
	// Scope selects diagonal-domain (default) or diagonal-tile pivoting for
	// the LU steps of LUQR.
	Scope Scope
	// Variant selects the LU-step formulation for Alg == LUQR: (A1) by
	// default, or the §II-C variants (A2), (B1), (B2), which force
	// diagonal-tile scope.
	Variant LUVariant
	// IntraTree and InterTree configure the QR-step reduction
	// (defaults: GREEDY inside nodes, FIBONACCI between nodes — §IV).
	IntraTree, InterTree tree.Tree
	// IB is the inner block size of the blocked panel kernels (GEQRT,
	// TSQRT, TTQRT). Zero means the default, lapack.PanelIB() (32), and a
	// negative one is an error; the kernels receive the value explicitly,
	// so concurrent runs may use different ib.
	IB int
	// Workers is the size of the runtime worker pool (default: GOMAXPROCS,
	// at most MaxWorkers).
	Workers int
	// Trace records the task graph for simulation / DOT output.
	Trace bool
	// Precision selects the kernel precision: f64 (default), auto (criterion
	// margin picks f32 per LU step), or f32 (every kernel forced through the
	// float32 path). Only LUQR variant (A1), LUNoPiv, LUPP, and HQR support
	// a non-f64 setting; withDefaults silently resets the knob to f64 for
	// the other algorithms and variants.
	Precision Precision
	// TrackGrowth samples the trailing submatrix after every elimination
	// step and records the peak intermediate element growth in
	// Report.PeakGrowth — the quantity the §III growth bounds govern.
	// Costs an extra O(N²) read per step, each tile read inside the task
	// that next touches it, so tracking adds no task and no wait.
	TrackGrowth bool
	// Seed seeds the Random criterion's generator.
	Seed int64
}

// EffectivePrecision resolves the precision a run with this config will
// actually use. The precision layer covers the task shapes of the A1 hybrid,
// the LU-step algorithms that share its kernels (LUNoPiv, LUPP), and HQR; the
// pairwise/tournament panels (LUIncPiv, CALU, HLU) and the §II-C variants
// run at f64 only, so a non-f64 request on them falls back to f64.
// The service derives cache digests from this, so a request asking for f32 on
// an unsupported algorithm shares the pure-f64 factorization instead of
// splitting the cache.
func (c Config) EffectivePrecision() Precision {
	if c.Precision == PrecisionF64 {
		return PrecisionF64
	}
	switch {
	case c.Alg == CALU || c.Alg == HLU || c.Alg == LUIncPiv:
		return PrecisionF64
	case c.Alg == LUQR && c.Variant != VarA1:
		return PrecisionF64
	}
	return c.Precision
}

// MaxWorkers caps Config.Workers. The engine starts one goroutine and one
// deque per worker before its first task, so a count taken from a request or
// a tuning table must be bounded before it reaches the engine: an unbounded
// one dies in an out-of-memory fatal error, which no recover can contain.
const MaxWorkers = 256

// withDefaults fills in the unset fields and rejects the out-of-range
// ones, before Run starts an engine: an unknown algorithm, variant, scope,
// precision or reduction tree, a negative inner block size, or a grid side
// below 1 (the all-zero grid is the 1×1 default). Each would otherwise
// panic in a task, divide by zero in Grid.Owner, or run as a default the
// caller did not ask for. Run has already rejected a negative NB, resolved
// a zero one and padded N to a multiple of it.
func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Grid.P == 0 && cfg.Grid.Q == 0 {
		cfg.Grid = tile.NewGrid(1, 1)
	}
	switch {
	case cfg.Alg < LUQR || cfg.Alg > HLU:
		return cfg, fmt.Errorf("core: unknown algorithm %v", cfg.Alg)
	case cfg.Variant < VarA1 || cfg.Variant > VarB2:
		return cfg, fmt.Errorf("core: unknown LU-step variant %v", cfg.Variant)
	case cfg.Scope != ScopeDomain && cfg.Scope != ScopeTile:
		return cfg, fmt.Errorf("core: unknown pivot scope %d", cfg.Scope)
	case cfg.Precision < PrecisionF64 || cfg.Precision > PrecisionF32:
		return cfg, fmt.Errorf("core: unknown precision %v", cfg.Precision)
	case !knownTree(cfg.IntraTree) || !knownTree(cfg.InterTree):
		return cfg, fmt.Errorf("core: unknown reduction tree %v/%v", cfg.IntraTree, cfg.InterTree)
	case cfg.Grid.P < 1 || cfg.Grid.Q < 1:
		return cfg, fmt.Errorf("core: invalid grid %dx%d", cfg.Grid.P, cfg.Grid.Q)
	case cfg.IB < 0:
		return cfg, fmt.Errorf("core: negative inner block size IB=%d", cfg.IB)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), MaxWorkers)
	}
	if cfg.Workers > MaxWorkers {
		return cfg, fmt.Errorf("core: Workers=%d exceeds MaxWorkers=%d", cfg.Workers, MaxWorkers)
	}
	if cfg.IntraTree == 0 && cfg.InterTree == 0 {
		cfg.IntraTree, cfg.InterTree = tree.Greedy, tree.Fibonacci
	}
	if cfg.Alg == LUQR && cfg.Criterion == nil {
		cfg.Criterion = criteria.Max{Alpha: 100}
	}
	cfg.Precision = cfg.EffectivePrecision()
	return cfg, nil
}

// knownTree reports whether t is one of the reduction trees.
func knownTree(t tree.Tree) bool { return t >= tree.FlatTS && t <= tree.Fibonacci }
