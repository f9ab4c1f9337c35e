package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/flops"
	"luqr/internal/matgen"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// TestForcedF32ConversionsPerTileBounded is the step-resident stack's
// accounting regression: on an all-LU forced-float32 run every tile pays at
// most one rounding pass (its first touch — panel or SWPTRSM acquire) and
// one widening pass (the final flush), so total conversions are O(tiles),
// not O(tiles × trailing columns). Before the shared step stack, every
// SWPTRSM(k,j) re-rounded its column's stateF64 tiles into fresh scratch —
// uncounted work proportional to the whole trailing submatrix per step.
//
// The second input takes QR steps, whose UNMQR/TSMQR/TTMQR updates run on
// resident images through the step stacks: it must open epochs, pay their
// boundary conversions (a zero means the counters came unwired) and refine
// back into the acceptance band. Its trial LU steps re-round tiles, so the
// bound is per epoch: the rounding into plus the widening out of each, with
// headroom for the re-roundings. A ratio blowout means per-column
// restacking is back.
func TestForcedF32ConversionsPerTileBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n, nb := 96, 16
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{
		Alg: LUQR, NB: nb, Grid: tile.NewGrid(2, 2),
		Criterion: criteria.Always{}, Precision: PrecisionF32,
	})
	if res.Report.F32Steps != res.Report.NT {
		t.Fatalf("forced-f32 run took %d f32 steps of %d", res.Report.F32Steps, res.Report.NT)
	}
	if res.Report.Demotions != 0 {
		t.Fatalf("diagdom forced-f32 run demoted %d tasks", res.Report.Demotions)
	}
	nt := res.Report.NT
	tiles := nt*nt + nt // matrix tiles + RHS tiles
	if res.Report.F32Epochs == 0 || res.Report.F32Epochs > tiles {
		t.Fatalf("epochs = %d, want in (0, %d]", res.Report.F32Epochs, tiles)
	}
	// One rounding in + one widening out per tile, nothing per column.
	if res.Report.Conversions == 0 || res.Report.Conversions > 2*tiles {
		t.Fatalf("conversions = %d for %d tiles — stacking is re-converting per column", res.Report.Conversions, tiles)
	}

	rng = rand.New(rand.NewSource(1))
	a = matgen.Random(128, rng)
	b = matgen.RandomVector(128, rng)
	r := runOn(t, a, b, Config{
		Alg: LUQR, NB: 32, Grid: tile.NewGrid(2, 2),
		Criterion: criteria.Max{Alpha: 100}, Seed: 1,
		IntraTree: tree.FlatTS, InterTree: tree.Fibonacci, Precision: PrecisionF32,
	}).Report
	if r.QRSteps == 0 || r.F32Steps == 0 || r.RefineIters == 0 || r.F32Epochs == 0 {
		t.Fatalf("QR-stepping forced-f32 run: %d QR steps, %d f32 steps, %d refinement rounds, %d epochs; want each > 0",
			r.QRSteps, r.F32Steps, r.RefineIters, r.F32Epochs)
	}
	if r.Conversions == 0 || r.Conversions > 4*r.F32Epochs {
		t.Fatalf("QR-stepping forced-f32 run: %d conversions for %d epochs, want in (0, 4·epochs]", r.Conversions, r.F32Epochs)
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > refineHPL3Tol {
		t.Fatalf("QR-stepping forced-f32 run: HPL3 = %g, want ≤ %g", r.HPL3, refineHPL3Tol)
	}
}

// TestKillUpdateRHSFlopsLabel pins the trace label of every tile-kernel
// task — matrix and RHS tiles, TS and TT trees — of mixed LU/QR hybrid runs
// (variants (A1), (B1) and (B2)), of HQR runs and of the pairwise LU runs
// (LU IncPiv's TS chain, HLU's TT trees): each task's Flops must equal its
// kernel's flops formula at the task's width (nb, or the RHS width 1). A
// mislabel skews per-kernel GFLOP/s in traces and the breakdown experiment;
// the RHS update of a TT kill once carried TSMQR's count. Every entry of
// the kernel table needs a formula here.
func TestKillUpdateRHSFlopsLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n, nb := 96, 16
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	want := map[string]func(w int) float64{
		"SWPTRSM": func(w int) float64 { return flops.Trsm(nb, w) },
		"TRSM":    func(int) float64 { return flops.Trsm(nb, nb) },
		"GEMM":    func(w int) float64 { return flops.Gemm(nb, w, nb) },
		"GEQRT":   func(int) float64 { return flops.Geqrt(nb, nb) },
		"UNMQR":   func(w int) float64 { return flops.Unmqr(nb, w) },
		"TSQRT":   func(int) float64 { return flops.Tsqrt(nb) },
		"TTQRT":   func(int) float64 { return flops.Ttqrt(nb) },
		"TSMQR":   func(w int) float64 { return flops.Tsmqr(nb, w) },
		"TTMQR":   func(w int) float64 { return flops.Ttmqr(nb, w) },
		"GETRF":   func(int) float64 { return flops.Getrf(nb, nb) },
		"GESSM":   func(w int) float64 { return flops.Trsm(nb, w) },
		"TSTRF":   func(int) float64 { return flops.Trsm(nb, nb) },
		"SSSSM":   func(w int) float64 { return flops.Trsm(nb, w) + flops.Gemm(nb, w, nb) },
		"TRSM2":   func(int) float64 { return 2 * flops.Trsm(nb, nb) },
		"TRSMQR":  func(int) float64 { return flops.Trsm(nb, nb) + flops.Unmqr(nb, nb) },
	}
	for _, kd := range kernels {
		if want[kd.name] == nil {
			t.Errorf("kernel %s has no flops formula in this test", kd.name)
		}
	}
	seen := map[string]bool{} // kernel, or kernel+" rhs"
	// A 2-row grid with a flat-TS intra tree: TS kills inside each domain,
	// TT kills merging the domain roots; Greedy's kills are all TT. LU
	// IncPiv's chain kills with TS, HLU's greedy tree with TT.
	for _, cfg := range []Config{
		{Alg: LUQR, Criterion: criteria.Random{Alpha: 50}, IntraTree: tree.FlatTS, InterTree: tree.Fibonacci},
		{Alg: LUQR, Variant: VarB1, Criterion: criteria.Random{Alpha: 50}},
		{Alg: LUQR, Variant: VarB2, Criterion: criteria.Random{Alpha: 50}},
		{Alg: HQR, IntraTree: tree.FlatTS, InterTree: tree.Fibonacci},
		{Alg: HQR, IntraTree: tree.Greedy, InterTree: tree.Fibonacci},
		{Alg: LUIncPiv},
		{Alg: HLU, IntraTree: tree.Greedy, InterTree: tree.Fibonacci},
	} {
		cfg.NB, cfg.Grid, cfg.Trace, cfg.Seed = nb, tile.NewGrid(2, 2), true, 3
		res := runOn(t, a, b, cfg)
		if cfg.Alg == LUQR && (res.Report.LUSteps == 0 || res.Report.QRSteps == 0) {
			t.Fatalf("hybrid %v run took %d LU and %d QR steps; need both", cfg.Variant, res.Report.LUSteps, res.Report.QRSteps)
		}
		for _, tr := range res.Report.Trace {
			formula, ok := want[tr.Kernel]
			// The panels (PanelLU, PanelTrialGETRF, CALUPanel) run GETRF
			// on stacked panels, with their own counts; the heads are the
			// table's GETRF(i,k).
			if !ok || tr.Kernel == "GETRF" && !strings.HasPrefix(tr.Name, "GETRF(") {
				continue
			}
			w, key := nb, tr.Kernel
			if strings.Contains(tr.Name, "rhs") {
				w, key = 1, tr.Kernel+" rhs" // a single right-hand side
			}
			seen[key] = true
			if tr.Flops != formula(w) {
				t.Fatalf("%v %s: %s flops = %g, want %g", cfg.Alg, tr.Name, tr.Kernel, tr.Flops, formula(w))
			}
		}
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("no %s task in the traces", k)
		}
	}
	for _, k := range []string{"SWPTRSM", "GEMM", "UNMQR", "TSMQR", "TTMQR", "GESSM", "SSSSM"} {
		if !seen[k+" rhs"] {
			t.Errorf("no %s task on the RHS in the traces", k)
		}
	}
}
