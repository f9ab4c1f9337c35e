package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"luqr/internal/core"
)

// ValidateSolverBench parses a BENCH_solver.json and checks it against the
// schema-2 contract: the CI smoke runs this on a freshly generated file so a
// generator regression (empty section, zero rate, missing sim curve) is
// caught without gating on the absolute numbers, which are host-dependent.
func ValidateSolverBench(r io.Reader) (*SolverBenchReport, error) {
	var rep SolverBenchReport
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("solver bench: %w", err)
	}
	if rep.Schema != 2 {
		return nil, fmt.Errorf("solver bench: schema %d, want 2", rep.Schema)
	}
	if rep.N < rep.NB || rep.NB <= 0 {
		return nil, fmt.Errorf("solver bench: bad configuration n=%d nb=%d", rep.N, rep.NB)
	}
	if len(rep.Solver) == 0 || len(rep.NBSweep) == 0 || len(rep.SimSolver) == 0 || len(rep.Dispatch) == 0 {
		return nil, fmt.Errorf("solver bench: empty section (solver=%d nb_sweep=%d solver_simulated=%d dispatch=%d)",
			len(rep.Solver), len(rep.NBSweep), len(rep.SimSolver), len(rep.Dispatch))
	}
	for _, e := range rep.Solver {
		if e.Workers <= 0 || e.WallSeconds <= 0 || e.GFlops <= 0 {
			return nil, fmt.Errorf("solver bench: degenerate solver entry %+v", e)
		}
	}
	for _, e := range rep.NBSweep {
		if e.NB <= 0 || e.Tiles != (rep.N+e.NB-1)/e.NB || e.GFlops <= 0 {
			return nil, fmt.Errorf("solver bench: degenerate nb_sweep entry %+v", e)
		}
	}
	if rep.SimNote == "" || rep.SimCriticalPath <= 0 || rep.SimParallelism <= 0 {
		return nil, fmt.Errorf("solver bench: simulated section missing its provenance (note=%q cp=%g par=%g)",
			rep.SimNote, rep.SimCriticalPath, rep.SimParallelism)
	}
	prev := 0.0
	for i, e := range rep.SimSolver {
		if e.Workers <= 0 || e.MakespanSeconds <= 0 || e.Speedup <= 0 {
			return nil, fmt.Errorf("solver bench: degenerate simulated entry %+v", e)
		}
		// More model cores can never slow the simulated DAG down.
		if i > 0 && e.Speedup < prev-1e-9 {
			return nil, fmt.Errorf("solver bench: simulated speedup not monotone at w=%d (%.3f after %.3f)",
				e.Workers, e.Speedup, prev)
		}
		prev = e.Speedup
	}
	for _, e := range rep.Dispatch {
		if e.Workers <= 0 || e.NsPerTask <= 0 {
			return nil, fmt.Errorf("solver bench: degenerate dispatch entry %+v", e)
		}
	}
	// The mixed-precision section is the smoke's refine-to-tolerance gate:
	// every entry must carry a valid precision name and a refined backward
	// error inside the §V-A acceptance band, and the forced-f32 point must
	// show the float32 path actually engaged (steps taken or demoted — a run
	// that silently stayed f64 would pass the accuracy gate vacuously).
	if len(rep.Mixed) == 0 {
		return nil, fmt.Errorf("solver bench: missing mixed-precision section")
	}
	const mixedHPL3Tol = 16.0
	for _, e := range rep.Mixed {
		if _, err := core.ParsePrecision(e.Precision); err != nil {
			return nil, fmt.Errorf("solver bench: mixed entry %+v: %w", e, err)
		}
		if e.WallSeconds <= 0 || e.GFlops <= 0 {
			return nil, fmt.Errorf("solver bench: degenerate mixed entry %+v", e)
		}
		if e.HPL3 < 0 || e.HPL3 > mixedHPL3Tol {
			return nil, fmt.Errorf("solver bench: mixed %s run did not refine to tolerance (hpl3=%g, band %g)",
				e.Precision, e.HPL3, mixedHPL3Tol)
		}
		if e.Precision == "f32" && e.F32Steps+e.Demotions == 0 {
			return nil, fmt.Errorf("solver bench: forced-f32 entry shows no f32 activity: %+v", e)
		}
		// Residency accounting: any run that accepted float32 steps did so on
		// resident tile images, so it must have opened epochs and paid their
		// boundary conversions — a zero here means the counters came unwired.
		// The f64 row (and an auto row that never licensed f32) legitimately
		// reports zeros: the store is never built for f64-effective runs.
		if e.F32Steps > 0 && (e.F32Epochs == 0 || e.Conversions == 0) {
			return nil, fmt.Errorf("solver bench: mixed %s entry took %d f32 steps but recorded no residency epochs/conversions: %+v",
				e.Precision, e.F32Steps, e)
		}
		if e.F32Steps == 0 && e.Demotions > 0 && e.Precision == "auto" {
			return nil, fmt.Errorf("solver bench: auto entry demoted %d tasks with no accepted f32 step: %+v", e.Demotions, e)
		}
		// QR residency: a row that ran f32 QR steps did its UNMQR/TSMQR/
		// TTMQR updates on resident images through the step stacks, so it
		// must have opened epochs, and the step-resident stacking bounds the
		// conversion passes to O(tiles) — at most the rounding into plus the
		// widening out of each epoch, with headroom for trial-step
		// re-roundings. A ratio blowout means per-column restacking is back.
		if e.F32Steps > 0 && e.QRSteps > 0 {
			if e.F32Epochs == 0 {
				return nil, fmt.Errorf("solver bench: mixed %s entry took %d f32 QR steps with no resident epochs: %+v",
					e.Precision, e.QRSteps, e)
			}
			if e.Conversions > 4*e.F32Epochs {
				return nil, fmt.Errorf("solver bench: mixed %s entry converts %d times for %d epochs (> 4x) — QR stacking is re-converting per column: %+v",
					e.Precision, e.Conversions, e.F32Epochs, e)
			}
		}
	}
	return &rep, nil
}

// KernelBenchDiff prints a benchstat-style before/after comparison of two
// kernel benchmark files, aligned on (kernel, nb), after the kernel tables
// each file ran on, with a warning when they differ. When old is nil, the
// comparison is new's committed seed baseline vs. its current section — the
// in-file before/after of BENCH_kernels.json.
func KernelBenchDiff(oldR, newR io.Reader, out io.Writer) error {
	var newRep KernelBenchReport
	if err := json.NewDecoder(newR).Decode(&newRep); err != nil {
		return fmt.Errorf("kernel diff: new: %w", err)
	}
	oldEntries := newRep.Seed
	oldLabel := "seed baseline"
	if oldR != nil {
		var oldRep KernelBenchReport
		if err := json.NewDecoder(oldR).Decode(&oldRep); err != nil {
			return fmt.Errorf("kernel diff: old: %w", err)
		}
		oldEntries = oldRep.Current
		oldLabel = "old"
		fmt.Fprintf(out, "kernel tables: old %s, new %s\n", kernelTables(oldRep), kernelTables(newRep))
		if oldRep.KernelF64 != newRep.KernelF64 || oldRep.KernelF32 != newRep.KernelF32 {
			fmt.Fprintln(out, "warning: the files ran on different kernel tables; the deltas include the micro-kernel change")
		}
	} else {
		fmt.Fprintf(out, "kernel tables: %s\n", kernelTables(newRep))
	}

	type key struct {
		Kernel string
		NB     int
	}
	olds := make(map[key]KernelBenchEntry, len(oldEntries))
	for _, e := range oldEntries {
		olds[key{e.Kernel, e.NB}] = e
	}
	// Keep the current file's order, kernels grouped per nb.
	entries := append([]KernelBenchEntry(nil), newRep.Current...)
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Kernel != entries[j].Kernel {
			return entries[i].Kernel < entries[j].Kernel
		}
		return entries[i].NB < entries[j].NB
	})

	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "kernel\tnb\t%s GF/s\tnew GF/s\tdelta\t\n", oldLabel)
	matched := 0
	for _, e := range entries {
		o, ok := olds[key{e.Kernel, e.NB}]
		if !ok {
			fmt.Fprintf(tw, "%s\t%d\t-\t%.3f\t(new)\t\n", e.Kernel, e.NB, e.GFlops)
			continue
		}
		matched++
		delta := "~"
		if o.GFlops > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(e.GFlops-o.GFlops)/o.GFlops)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%s\t\n", e.Kernel, e.NB, o.GFlops, e.GFlops, delta)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if matched == 0 {
		return fmt.Errorf("kernel diff: no (kernel, nb) pair appears in both files")
	}
	// Precision ratio: where the current file carries both the f64 and f32
	// rates of a kernel at the same tile order, print the f32 speedup — the
	// within-file number the mixed-precision acceptance gate reads.
	cur := make(map[key]float64, len(newRep.Current))
	for _, e := range newRep.Current {
		cur[key{e.Kernel, e.NB}] = e.GFlops
	}
	for _, e := range entries {
		base, isF32 := strings.CutSuffix(e.Kernel, ".f32")
		if !isF32 {
			continue
		}
		if f64GF, ok := cur[key{base, e.NB}]; ok && f64GF > 0 && e.GFlops > 0 {
			fmt.Fprintf(out, "%s nb=%d: %.2f× the f64 rate (%.3f vs %.3f GF/s)\n",
				e.Kernel, e.NB, e.GFlops/f64GF, e.GFlops, f64GF)
		}
	}
	return nil
}

// kernelTables names the kernel tables a report ran on, "unrecorded" for a
// file written before reports carried them.
func kernelTables(r KernelBenchReport) string {
	name := func(id string) string {
		if id == "" {
			return "unrecorded"
		}
		return id
	}
	return fmt.Sprintf("f64=%s f32=%s", name(r.KernelF64), name(r.KernelF32))
}
