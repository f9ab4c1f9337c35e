package core

import (
	"fmt"

	"luqr/internal/dist"
	"luqr/internal/mat"
	"luqr/internal/runtime"
)

// scheduleHybridStep builds step k of the hybrid LU-QR algorithm
// (Algorithm 1 / Figure 1): norm collection, panel backup, the trial
// factorization, the criterion decision, and — from the decision task's
// unfolding hook — either the LU step (keeping the trial factorization) or
// the QR step; finally it schedules step k+1. Variant (A1) factors the
// diagonal domain with LU; the §II-C variants (variants.go) factor the
// diagonal tile, and the QR-based (A2)/(B2) need no backup, because a QR
// step reuses their trial.
func (f *fact) scheduleHybridStep(k int) {
	st := &stepState{k: k, rows: []int{k}, variant: f.cfg.Variant}
	if st.variant == VarA1 {
		st.rows = f.pivotRows(k, f.cfg.Scope)
	}
	st.f32 = f.forceF32
	f.steps[k] = st

	f.submitNormTasks(st)
	if st.variant == VarA1 || st.variant == VarB1 {
		f.submitBackup(st)
	}
	if st.variant == VarA1 {
		f.submitPanelFactor(st, true)
	} else {
		f.submitVariantTrial(st)
	}

	// Decide: every node evaluates the same criterion on the all-reduced
	// data; here the task reads the small norm handles (the trace charges
	// their movement) and unfolds the chosen subgraph.
	acc := []runtime.Access{runtime.R(st.hStack)}
	if st.hBackup != nil {
		acc = append(acc, runtime.R(st.hBackup))
	}
	for _, h := range st.hNorms {
		acc = append(acc, runtime.R(h))
	}
	f.e.Submit(runtime.TaskSpec{
		Name:      fmt.Sprintf("Decide(%d)", k),
		Kernel:    "DECIDE",
		Node:      f.owner(k, k),
		Flops:     float64(10 * f.nb * f.nb), // norm estimate + reductions, O(nb²)
		Priority:  prioPanel(k),
		ExtraComm: f.allReduceComm(k),
		Accesses:  acc,
		Run: func() {
			in := f.criterionInput(st)
			st.decision = f.cfg.Criterion.Decide(in)
			f.report.Decisions[k] = st.decision
			f.report.Margins[k] = in.Margin
			// PrecisionAuto: a comfortable LU margin — the decision quantity
			// at least 1/DefaultF32Margin below the α threshold — licenses
			// float32 for this step's eliminations and updates, on an
			// operator float32 holds (f.autoF32). The trial panel already
			// ran (at f64, for free), and any f32 excursion later demotes,
			// so the gamble costs nothing on the downside. NaN margins
			// (Random criterion) fail the comparison and stay f64. Only
			// (A1) runs at PrecisionAuto (EffectivePrecision).
			if f.cfg.Precision == PrecisionAuto && f.autoF32 && st.decision && in.Margin <= DefaultF32Margin {
				st.f32 = true
				// Resident SWPTRSM applies solve against a float32 image of
				// the factored panel's top block; build it once here (the
				// trial panel ran at f64, so st.stack is the authoritative
				// copy) instead of once per apply.
				st.l11_32 = mat.NewMatrix32(f.nb, f.nb)
				st.l11_32.RoundFrom(st.stack.View(0, 0, f.nb, f.nb))
			}
			if st.decision {
				f.noteBreakdown(st.luErr)
			}
		},
		Then: func(*runtime.Engine) {
			switch {
			case st.decision:
				st.releaseBackup() // LU keeps the trial factors; drop the snapshot
				if st.variant == VarA1 {
					f.submitLUStep(st)
				} else {
					f.submitVariantLUStep(st)
				}
			case st.hBackup != nil:
				f.submitRestore(st)
				f.submitTreeStep(st, &qrOps)
			default:
				// The (A2)/(B2) trial's QR factorization of the diagonal
				// tile is reused: submitTreeStep skips GEQRT(k).
				st.preFactored = true
				f.submitTreeStep(st, &qrOps)
			}
			f.probeGrowth(k)
			if k+1 < f.nt {
				f.scheduleHybridStep(k + 1)
			}
		},
	})
}

// allReduceComm models the Bruck all-reduce of the criterion data among the
// nodes hosting panel-k tiles (§III): ⌈log₂ p⌉ serial rounds, each carrying
// the tile norms and column maxima.
func (f *fact) allReduceComm(k int) []runtime.Message {
	nodes := dist.PanelNodes(f.cfg.Grid, k, f.nt)
	rounds := dist.AllReduceRounds(len(nodes))
	if rounds == 0 {
		return nil
	}
	msgs := make([]runtime.Message, rounds)
	for i := range msgs {
		msgs[i] = runtime.Message{From: -1, To: f.owner(k, k), Bytes: 8 * (f.nb + 1)}
	}
	return msgs
}

// scheduleLU builds the static task graph of the pure LU algorithms: LU
// NoPiv (pivot search inside the diagonal tile) and LUPP (pivot search over
// the whole panel). Both take an LU step at every panel, so the entire
// graph is known upfront — no backup, criterion, or propagate tasks.
func (f *fact) scheduleLU(scope Scope, wholePanel bool) {
	for k := 0; k < f.nt; k++ {
		st := &stepState{k: k}
		st.f32 = f.forceF32
		if wholePanel {
			st.rows = f.panelRows(k)
		} else {
			st.rows = f.pivotRows(k, scope)
		}
		f.steps[k] = st
		f.report.Decisions[k] = true
		f.submitPanelFactorStatic(st)
		f.submitLUStep(st)
		f.probeGrowth(k)
	}
}

// submitPanelFactorStatic is submitPanelFactor without criterion data, and
// with breakdown reporting in the factor task itself (there is no decision
// task to defer it to).
func (f *fact) submitPanelFactorStatic(st *stepState) {
	f.submitPanelFactor(st, false)
	// Wrap breakdown reporting: the panel task stores luErr; a tiny control
	// task reads the stack handle and records it.
	k := st.k
	f.e.Submit(runtime.TaskSpec{
		Name:     fmt.Sprintf("CheckPanel(%d)", k),
		Kernel:   "DECIDE",
		Node:     f.owner(k, k),
		Priority: prioPanel(k),
		Accesses: []runtime.Access{runtime.R(st.hStack)},
		Run:      func() { f.noteBreakdown(st.luErr) },
	})
}

// scheduleTree builds the static task graph of the tree algorithms, a tree
// step at every panel and no decision path: HQR's hierarchical QR [8],
// the baseline whose gap to LUQR(α=0) measures the decision-path overhead
// (§V-B), or the pairwise LU of LU IncPiv and HLU (hlu.go).
func (f *fact) scheduleTree() {
	ks := treeOps(f.cfg.Alg)
	for k := 0; k < f.nt; k++ {
		st := &stepState{k: k}
		st.f32 = f.forceF32
		f.steps[k] = st
		f.report.Decisions[k] = f.cfg.Alg.pairwise()
		f.submitTreeStep(st, ks)
		f.probeGrowth(k)
	}
}
