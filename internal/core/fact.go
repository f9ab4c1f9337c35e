package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"luqr/internal/blas"
	"luqr/internal/criteria"
	"luqr/internal/dist"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tile"
)

// Task priorities: the panel path (backup, trial factorization, decision,
// restore, panel eliminations) must outrun trailing updates so the next
// step's decision is never starved — the lookahead that makes the hybrid
// algorithm pipeline (§IV). Within each family, earlier panels first; among
// updates, nearer columns first.
//
// The split maps onto the engine's two-level scheduler: prioPanel, prioElim
// and prioLookahead stay at or above runtime.LanePriority, so those tasks
// ride the shared priority lane every worker polls first, while the general
// trailing updates stay below it and ride the per-worker deques with their
// locality-aware work stealing. The lookahead band matters because the
// deques are FIFO and priority-blind: the updates of column k+1 (and the
// RHS) gate step k+1's panel, and on the old priority heap they ran first
// among updates — dropped into a deque they would queue behind arbitrary
// trailing work and stall the pipeline. The k<<8 / k<<10 terms order
// concurrent steps (earlier panel first) within each band without letting
// the bands overlap for any realistic tile count.
func prioPanel(k int) int     { return 1<<28 - k<<8 }
func prioElim(k int) int      { return 1<<27 - k<<8 }
func prioLookahead(k int) int { return 3<<25 - k<<8 }
func prioUpdate(k, j int) int {
	if j == k+1 {
		return prioLookahead(k)
	}
	return 1<<26 - k<<10 - (j - k)
}

type normResult struct {
	row      int
	inDomain bool
	norm1    float64
	colMax   []float64
}

type stepState struct {
	k    int
	rows []int // pivot rows: the diagonal domain (or tile, or whole panel)

	backup    []*mat.Matrix     // pre-factorization copies of the pivot-row tiles
	backupBuf *mat.Buf[float64] // pooled storage backing the backup views
	localMax  []float64         // per-column max |a| over the pivot rows (backup)

	stack *mat.Matrix // the factored stacked panel (L\U), kept for applies
	// stack32 is the resident forced-f32 factored panel (same values as
	// stack, float32 storage); l11_32 is the float32 image of stack's top
	// nb×nb block, built once per step for the resident SWPTRSM applies.
	stack32 *mat.Matrix32
	l11_32  *mat.Matrix32
	piv     []int
	pivots  []float64 // |U_jj|
	invNorm float64   // ‖(A_kk^(k))⁻¹‖₁ estimate
	luErr   error

	norms []*normResult // one per sub-diagonal panel tile

	decision bool // true = LU step
	// f32 marks the step's kernels for the float32 path: set at schedule
	// time under PrecisionF32 (fact.forceF32), or by the decision task when
	// PrecisionAuto finds the criterion margin comfortable. A panel
	// excursion clears it (the whole step demotes); individual update-task
	// demotions re-run at f64 without clearing it.
	f32 bool
	// preFactored marks that the diagonal tile already holds a QR
	// factorization from an (A2)/(B2) trial, reusable by the QR step.
	preFactored bool
	// variant records which LU-step formulation the step used (for RHS
	// replay in Result.Solve).
	variant LUVariant

	hBackup *runtime.Handle
	hStack  *runtime.Handle
	hNorms  []*runtime.Handle

	// Tree-step factor storage, keyed by tile row: the factors of the
	// step's head (GEQRT, GETRF) and kill (TSQRT, TTQRT, TSTRF) tasks, each
	// with its float32 image, pivots and runtime handle. The maps are
	// written at submit time (single-threaded, so they never race with
	// worker reads).
	tGeqrt map[int]*tFactor
	tKill  map[int]*tFactor
}

// fact carries one factorization through the runtime.
type fact struct {
	cfg Config
	A   *tile.Matrix
	rhs *tile.Vector
	e   *runtime.Engine

	h  [][]*runtime.Handle // tile handles
	hb []*runtime.Handle   // rhs tile handles

	// ib is the panel kernels' inner block size, resolved once from
	// Config.IB (lapack.PanelIB() when unset) and passed explicitly to the
	// blocked kernels.
	nt, nb, ib int
	steps      []*stepState

	// diagSolvers[k] applies A_kk⁻¹ to an RHS tile during the block
	// back-substitution; nil means the default upper-triangular solve
	// (variants (B1)/(B2) install custom solvers).
	diagSolvers []func(b *mat.Matrix)

	// Mixed-precision state (Config.Precision != PrecisionF64): a0 retains a
	// copy of the (padded) input for the refinement residuals and normA the
	// ‖·‖∞ of the original, unpadded matrix, which the refinement's HPL3
	// uses as the report does; f32Ceil is the bit pattern of the excursion
	// ceiling 1e8·max(1, max|A|) rounded down to float32 (f32Ceiling),
	// beyond which a float32 result is rejected and its task re-run at
	// float64.
	a0      *mat.Matrix
	normA   float64
	f32Ceil uint32
	// autoF32 licenses PrecisionAuto's float32 steps: max|A| over the
	// original entries lies within float32's normal range with the
	// ceiling's f32Headroom on both sides (f32Licensed). Outside it every
	// step stays float64. forceF32 is PrecisionF32's schedule-time f32 mark:
	// set unless max|A| lies below f32Floor; the upper side is left to the
	// excursion scan, which demotes what grows past the ceiling.
	autoF32, forceF32 bool
	// res is the float32 tile-residency store, built for every run that is
	// not f64-effective (nil otherwise). Float32 kernels run on its resident
	// tile images through the run32 harness, and every float64 task
	// normalizes its tiles with ensure64 first.
	res *tile.Residency

	mu        sync.Mutex
	breakdown bool
	peakAbs   float64 // max |a_ij| seen by growth probes
	demotions int     // f32 tasks re-run at f64 after an excursion

	report *Report
}

func newFact(cfg Config, a *tile.Matrix, rhs *tile.Vector) *fact {
	ib := cfg.IB
	if ib == 0 {
		ib = lapack.PanelIB()
	}
	f := &fact{
		cfg: cfg, A: a, rhs: rhs,
		nt: a.NT, nb: a.NB, ib: ib,
		steps:       make([]*stepState, a.NT),
		diagSolvers: make([]func(b *mat.Matrix), a.NT),
		report: &Report{
			Alg: cfg.Alg, N: a.N(), NB: a.NB, NT: a.NT, IB: ib,
			GridP: cfg.Grid.P, GridQ: cfg.Grid.Q,
			Decisions: make([]bool, a.NT),
			Precision: cfg.Precision,
			StepF32:   make([]bool, a.NT),
			Margins:   make([]float64, a.NT),
		},
	}
	for k := range f.report.Margins {
		f.report.Margins[k] = math.NaN() // no criterion margin recorded (yet)
	}
	f.e = runtime.NewEngine(runtime.Config{Workers: cfg.Workers, Trace: cfg.Trace})
	tileBytes := a.NB * a.NB * 8
	f.h = make([][]*runtime.Handle, a.MT)
	for i := range f.h {
		f.h[i] = make([]*runtime.Handle, a.NT)
		for j := range f.h[i] {
			f.h[i][j] = f.e.NewHandle(fmt.Sprintf("A(%d,%d)", i, j), tileBytes, cfg.Grid.Owner(i, j))
		}
	}
	f.hb = make([]*runtime.Handle, a.MT)
	for i := range f.hb {
		f.hb[i] = f.e.NewHandle(fmt.Sprintf("b(%d)", i), a.NB*8, cfg.Grid.Owner(i, 0))
	}
	return f
}

func (f *fact) owner(i, j int) int { return f.cfg.Grid.Owner(i, j) }

func (f *fact) noteBreakdown(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	f.breakdown = true
	f.mu.Unlock()
}

func (f *fact) noteDemotion() {
	f.mu.Lock()
	f.demotions++
	f.mu.Unlock()
}

// colRefs names column j's tiles at the given rows.
func colRefs(rows []int, j int) []tile.Ref {
	refs := make([]tile.Ref, len(rows))
	for r, i := range rows {
		refs[r] = tile.At(i, j)
	}
	return refs
}

// rhsRefs names the RHS tiles at the given rows.
func rhsRefs(rows []int) []tile.Ref {
	refs := make([]tile.Ref, len(rows))
	for r, i := range rows {
		refs[r] = tile.RHS(i)
	}
	return refs
}

// ensure64 normalizes the listed tiles to current float64 storage (no-op
// without residency). Every task that runs a float64 body must ensure every
// tile it touches; on non-resident tiles this is a single lock check.
func (f *fact) ensure64(m *tile.Meter, refs ...tile.Ref) {
	if f.res == nil {
		return
	}
	for _, t := range refs {
		f.res.EnsureF64(t, m)
	}
}

// excursion32 reports whether any of the float32 images holds a casualty: a
// non-finite entry, or growth past the ceiling f.f32Ceil — far beyond what
// a healthy elimination step produces, yet far below float32 overflow, so
// it flags a factorization going wrong before the poison spreads. It is
// blas.Above32's one unsigned compare per element, over a whole image at
// once where its rows are contiguous and row by row in a view.
func (f *fact) excursion32(ms ...*mat.Matrix32) bool {
	for _, m := range ms {
		if m.Stride == m.Cols {
			if blas.Above32(m.Data[:m.Rows*m.Cols], f.f32Ceil) {
				return true
			}
			continue
		}
		for i := 0; i < m.Rows; i++ {
			if blas.Above32(m.Row(i), f.f32Ceil) {
				return true
			}
		}
	}
	return false
}

// f32Headroom is how far an operator's entries may grow in a float32 step
// before the excursion scan rejects it: the ceiling is
// f32Headroom·max(1, max|A|).
const f32Headroom = 1e8

// f32Floor is the smallest max|A| float32 steps run on, f32Headroom·FLT_MIN
// (≈1.2e-30): below it float32 rounds the operator to subnormals and
// zeros, which no excursion flags, so even forced float32 runs float64.
const f32Floor = f32Headroom * 0x1p-126

// f32Licensed reports whether PrecisionAuto may run float32 steps on an
// operator of largest magnitude maxA: f32Floor ≤ maxA ≤
// MaxFloat32/f32Headroom. Above, float32 leaves less than the ceiling's
// headroom before overflow, and past MaxFloat32 every step demotes.
func f32Licensed(maxA float64) bool {
	return maxA >= f32Floor && maxA <= math.MaxFloat32/f32Headroom
}

// f32Ceiling returns the bit pattern of the largest float32 at most bound
// (bound ≥ 0, +Inf allowed), the ceiling excursion32 compares against: a
// float32 exceeds bound exactly when it exceeds that float32.
func f32Ceiling(bound float64) uint32 {
	c := float32(bound)
	if float64(c) > bound {
		c = math.Nextafter32(c, 0)
	}
	return math.Float32bits(c)
}

// trailingCols returns the column indices j > k.
func (f *fact) trailingCols(k int) []int {
	cols := make([]int, 0, f.nt-k-1)
	for j := k + 1; j < f.nt; j++ {
		cols = append(cols, j)
	}
	return cols
}

// pivotRows returns the rows participating in the panel factorization of
// step k for the given scope.
func (f *fact) pivotRows(k int, scope Scope) []int {
	switch scope {
	case ScopeTile:
		return []int{k}
	case ScopeDomain:
		return f.cfg.Grid.DiagonalDomain(k, f.nt)
	}
	panic("core: unknown scope")
}

// panelRows returns all rows of panel k.
func (f *fact) panelRows(k int) []int {
	rows := make([]int, 0, f.nt-k)
	for i := k; i < f.nt; i++ {
		rows = append(rows, i)
	}
	return rows
}

// accRows builds write accesses for the panel tiles of the given rows in
// column j.
func (f *fact) accRows(rows []int, j int) []runtime.Access {
	acc := make([]runtime.Access, 0, len(rows))
	for _, i := range rows {
		acc = append(acc, runtime.W(f.h[i][j]))
	}
	return acc
}

// inSet reports membership of i in sorted rows.
func inSet(rows []int, i int) bool {
	for _, r := range rows {
		if r == i {
			return true
		}
	}
	return false
}

// submitNormTasks measures ‖A_ik‖₁ of every sub-diagonal panel tile, and
// the per-column maxima of those outside the pivot rows (the only ones the
// criterion input folds), before the trial factorization (criterion data,
// §III). One task per tile, on the tile's owner, so that the trace charges
// only the small norm payloads for the criterion exchange.
func (f *fact) submitNormTasks(st *stepState) {
	k := st.k
	nb := f.nb
	for i := k + 1; i < f.nt; i++ {
		i := i
		nr := &normResult{row: i, inDomain: inSet(st.rows, i)}
		st.norms = append(st.norms, nr)
		h := f.e.NewHandle(fmt.Sprintf("norm(%d,%d)", i, k), 16, f.owner(i, k))
		st.hNorms = append(st.hNorms, h)
		f.e.Submit(runtime.TaskSpec{
			Name:     fmt.Sprintf("Norm(%d,%d)", i, k),
			Kernel:   "NORM",
			Node:     f.owner(i, k),
			Flops:    float64(2 * nb * nb),
			Priority: prioPanel(k),
			Accesses: []runtime.Access{runtime.R(f.h[i][k]), runtime.W(h)},
			Run: func() {
				if !nr.inDomain {
					nr.colMax = make([]float64, nb)
				}
				if f.res != nil {
					// Read through the residency state: a resident tile is
					// measured over its image without being demoted, so a
					// criterion probe never ends a float32 epoch.
					nr.norm1 = f.res.TileNorm1(i, k)
					if nr.colMax != nil {
						f.res.TileColsAbsMax(i, k, nr.colMax)
					}
					return
				}
				t := f.A.Tile(i, k)
				nr.norm1 = t.Norm1()
				if nr.colMax != nil {
					t.ColsAbsMax(nr.colMax)
				}
			},
		})
	}
}

// submitBackup snapshots the pivot-row tiles (and records their pre-factor
// column maxima for the MUMPS criterion) — the Backup Panel stage of Fig. 1.
func (f *fact) submitBackup(st *stepState) {
	k := st.k
	st.hBackup = f.e.NewHandle(fmt.Sprintf("backup(%d)", k), len(st.rows)*f.nb*f.nb*8, f.owner(k, k))
	acc := []runtime.Access{runtime.W(st.hBackup)}
	for _, i := range st.rows {
		acc = append(acc, runtime.R(f.h[i][k]))
	}
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("Backup(%d)", k),
		Kernel:   "BACKUP",
		Node:     f.owner(k, k),
		Flops:    0,
		Priority: prioPanel(k),
		Accesses: acc,
		Run: func() {
			// One pooled slab backs all the row snapshots; it is released by
			// releaseBackup once the step's decision no longer needs it
			// ("destroyed on exit of Propagate", §IV). CopyFrom overwrites
			// every element, so the unzeroed pool buffer is safe.
			nb := f.nb
			st.backupBuf = mat.GetBuf[float64](len(st.rows) * nb * nb)
			st.backup = make([]*mat.Matrix, len(st.rows))
			for r, i := range st.rows {
				d := st.backupBuf.Data[r*nb*nb : (r+1)*nb*nb]
				st.backup[r] = &mat.Matrix{Rows: nb, Cols: nb, Stride: nb, Data: d}
				if f.res != nil {
					// Snapshot the tile's current values (widening a live
					// image) without ending its float32 epoch.
					f.res.CopyTileInto(st.backup[r], i, k)
				} else {
					st.backup[r].CopyFrom(f.A.Tile(i, k))
				}
			}
			st.localMax = make([]float64, nb)
			colMax := make([]float64, nb)
			for _, t := range st.backup {
				t.ColsAbsMax(colMax)
				for j, v := range colMax {
					st.localMax[j] = foldAbsMax(st.localMax[j], v)
				}
			}
		},
	})
}

// submitPanelFactor stacks the pivot-row tiles of column k, factors them
// with partial pivoting, writes the factors back into the tiles, and
// computes the criterion's diagonal-tile data (pivot magnitudes and the
// Hager–Higham estimate of ‖(A_kk^(k))⁻¹‖₁). This is the LU On Panel stage
// of Fig. 1; the paper uses the multithreaded recursive-LU kernel of PLASMA
// here, our stand-in is the stacked Getrf. A float32 step runs the same
// Getrf on a resident float32 stack instead and demotes the whole step to
// float64 on a breakdown or an excursion.
func (f *fact) submitPanelFactor(st *stepState, withCriterion bool) {
	k := st.k
	nb := f.nb
	st.hStack = f.e.NewHandle(fmt.Sprintf("panelLU(%d)", k), len(st.rows)*nb*nb*8, f.owner(k, k))
	acc := []runtime.Access{runtime.W(st.hStack)}
	acc = append(acc, f.accRows(st.rows, k)...)
	// When the pivot search spans several nodes (LUPP), every column pays a
	// sequential pivot exchange — ScaLAPACK's IDAMAX all-reduce — which is
	// the latency the communication-avoiding algorithms eliminate. The
	// diagonal-domain and tile scopes are node-local and pay nothing.
	var pivComm []runtime.Message
	if rounds := pivotExchangeRounds(f.cfg.Grid, st.rows); rounds > 0 {
		pivComm = make([]runtime.Message, nb*rounds)
		for i := range pivComm {
			pivComm[i] = runtime.Message{From: -1, To: f.owner(k, k), Bytes: 16}
		}
	}
	flop := float64(len(st.rows)*nb) * float64(nb) * float64(nb)
	f.e.Submit(runtime.TaskSpec{
		Name:      fmt.Sprintf("PanelLU(%d)", k),
		Kernel:    "GETRF",
		Node:      f.owner(k, k),
		Flops:     flop - float64(nb)*float64(nb)*float64(nb)/3,
		Priority:  prioPanel(k),
		ExtraComm: pivComm,
		Accesses:  acc,
		RunTraced: func(tr *runtime.TraceTask) {
			m := &tile.Meter{}
			if st.f32 {
				// Forced-float32 panel: factor a float32 step stack acquired
				// by reading through each tile's current state, then commit
				// it — the stack views become the panel tiles' dirty images —
				// and keep a widened float64 copy in st.stack for the
				// criterion quantities, the f64 applies and the RHS replay.
				st.stack32 = f.res.AcquireStack32(colRefs(st.rows, k), m)
				st.piv, st.luErr = lapack.Getrf(st.stack32)
				if st.luErr != nil || f.excursion32(st.stack32) {
					// Demote the whole step: the images are untouched until
					// commit, so abandoning the stack, normalizing the tiles
					// to float64 and refactoring restarts from clean data.
					// Clearing st.f32 keeps the step's eliminations and
					// updates at f64 too — a panel that misbehaves at float32
					// has no business driving float32 updates.
					st.stack32, st.l11_32 = nil, nil
					f.ensure64(m, colRefs(st.rows, k)...)
					st.stack = f.A.StackRows(st.rows, k)
					st.piv, st.luErr = lapack.Getrf(st.stack)
					st.f32 = false
					f.noteDemotion()
					f.A.UnstackRows(st.stack, st.rows, k)
				} else {
					st.stack = mat.New(len(st.rows)*nb, nb)
					st.stack32.WidenInto(st.stack)
					st.l11_32 = st.stack32.View(0, 0, nb, nb)
					f.res.CommitStack32(st.stack32, colRefs(st.rows, k))
				}
			} else {
				// The float64 trial factors the tiles' float64 content —
				// normalize any images left behind by the previous step's
				// float32 updates first.
				f.ensure64(m, colRefs(st.rows, k)...)
				st.stack = f.A.StackRows(st.rows, k)
				st.piv, st.luErr = lapack.Getrf(st.stack)
				f.A.UnstackRows(st.stack, st.rows, k)
			}
			if withCriterion {
				top := st.stack.View(0, 0, nb, nb)
				st.pivots = lapack.LUPivotGrowth(top)
				st.invNorm = invNorm1(top, nil, st.luErr)
			}
			tr.ChargeConv(m.NS)
		},
	})
}

// pivotExchangeRounds returns the number of communication rounds of one
// per-column pivot exchange among the nodes owning the given panel rows:
// ⌈log₂ #node-rows⌉, 0 when the rows live on a single node.
func pivotExchangeRounds(g tile.Grid, rows []int) int {
	seen := map[int]bool{}
	for _, i := range rows {
		seen[i%g.P] = true
	}
	return dist.AllReduceRounds(len(seen))
}

// stepRng returns the Random criterion's generator for step k, derived from
// the run seed and the step index by a SplitMix64 mix. Decide callbacks run
// on worker goroutines and *rand.Rand is not safe for concurrent use, so a
// generator shared across steps would race (and make decisions depend on
// execution order); a per-step derivation keeps every decision reproducible
// for a given (seed, step) regardless of worker count or scheduling.
func stepRng(seed int64, k int) *rand.Rand {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// invNorm1 is the criterion's ‖A_kk⁻¹‖₁ from the LU factors lu (pivots
// piv, nil when the rows were swapped already) of the diagonal tile: +Inf
// when the factorization broke down on an exactly singular tile.
func invNorm1(lu *mat.Matrix, piv []int, luErr error) float64 {
	if luErr != nil {
		return math.Inf(1)
	}
	return lapack.InvNorm1EstLU(lu, piv)
}

// criterionInput assembles the Input for the configured criterion from the
// data gathered by the norm, backup and panel tasks.
func (f *fact) criterionInput(st *stepState) *criteria.Input {
	in := &criteria.Input{
		Step:         st.k,
		InvDiagNorm1: st.invNorm,
		LocalMax:     st.localMax,
		Pivots:       st.pivots,
		Rng:          stepRng(f.cfg.Seed, st.k),
	}
	away := make([]float64, f.nb)
	for _, nr := range st.norms {
		in.OffDiagTileNorms = append(in.OffDiagTileNorms, nr.norm1)
		// nr.colMax is nil for the pivot rows' tiles.
		for j, v := range nr.colMax {
			away[j] = foldAbsMax(away[j], v)
		}
	}
	in.AwayMax = away
	return in
}

// foldAbsMax folds one magnitude into a running maximum, propagating NaN: a
// plain `v > m` comparison drops NaN (every comparison with NaN is false),
// which would let a poisoned column feed finite maxima into the criteria and
// mask the QR fallback they owe the §III growth bounds.
func foldAbsMax(m, v float64) float64 {
	if math.IsNaN(v) {
		return v
	}
	if v > m {
		return v
	}
	return m
}

// submitRestore undoes the trial factorization when the criterion picks a
// QR step (the Propagate tasks' restore path of Fig. 1).
func (f *fact) submitRestore(st *stepState) {
	k := st.k
	acc := []runtime.Access{runtime.R(st.hBackup)}
	acc = append(acc, f.accRows(st.rows, k)...)
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("Restore(%d)", k),
		Kernel:   "RESTORE",
		Node:     f.owner(k, k),
		Priority: prioPanel(k),
		Accesses: acc,
		Run: func() {
			for r, i := range st.rows {
				if f.res != nil {
					// Overwrite the float64 array and invalidate any image in
					// one locked step, so a stale image can never resurface.
					f.res.StoreF64(i, k, st.backup[r])
				} else {
					f.A.Tile(i, k).CopyFrom(st.backup[r])
				}
			}
			st.releaseBackup() // destroyed on exit of Propagate, as in §IV
		},
	})
}

// releaseBackup returns the step's backup slab to the workspace pool. Called
// from the Restore task (QR decision) or right after the decision unfolds an
// LU step (where the snapshot is simply dropped) — the backup's only reader
// downstream of Decide is Restore.
func (st *stepState) releaseBackup() {
	st.backup = nil
	mat.PutBuf(st.backupBuf)
	st.backupBuf = nil
}

// probeGrowth samples max|A^(k+1)| over the trailing submatrix after step
// k's updates and folds it into f.peakAbs, the peak intermediate growth
// (Config.TrackGrowth), without a task of its own: it leaves an observer
// (runtime.Engine.Observe) on each tile of rows and columns k+1 on, which
// the first task to touch the tile after step k runs before its kernel, so
// it reads the tile as step k left it, and no task waits for it. No later
// step writes row or column k, so their values after step k are the final
// ones: Run folds them in from its scan of the final tiles. The maximum is
// the same whatever order the observers run in.
func (f *fact) probeGrowth(k int) {
	if !f.cfg.TrackGrowth {
		return
	}
	for i := k + 1; i < f.nt; i++ {
		for j := k + 1; j < f.nt; j++ {
			f.e.Observe(f.h[i][j], func() {
				var v float64
				if f.res != nil {
					// Read through a live image without demoting it.
					v = f.res.TileNormMax(i, j)
				} else {
					v = f.A.Tile(i, j).NormMax()
				}
				f.mu.Lock()
				if v > f.peakAbs {
					f.peakAbs = v
				}
				f.mu.Unlock()
			})
		}
	}
}
