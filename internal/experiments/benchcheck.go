package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

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
