package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// KernelCost is one row of Table I: a kernel, its model cost in units of
// nb³ flops, and the measured execution time of this library's
// implementation.
type KernelCost struct {
	Kernel     string
	ModelUnits float64 // Table I: flops / nb³
	MeasuredMs float64
	// MeasuredUnits normalizes the measured time by the GEMM rate
	// (GEMM ≡ 2 units), showing how close the pure-Go kernels come to the
	// model's relative costs.
	MeasuredUnits float64
}

// Table1 reproduces Table I: the per-kernel operation counts (in units of
// nb³) together with measured float64 kernel timings at the given tile size
// (timeTableI's method, which the kernel bench shares).
func Table1(nb int, reps int, out io.Writer) []KernelCost {
	if nb <= 0 {
		nb = 120
	}
	if reps <= 0 {
		reps = 5
	}
	unit := float64(nb) * float64(nb) * float64(nb)
	var costs []KernelCost
	for _, k := range timeTableI[float64](nb, reps) {
		costs = append(costs, KernelCost{Kernel: k.kernel, ModelUnits: k.flops / unit, MeasuredMs: 1e3 * k.sec})
	}

	// Normalize measured times so GEMM ≡ its model 2 units.
	var gemmMs float64
	for _, c := range costs {
		if c.Kernel == "GEMM" {
			gemmMs = c.MeasuredMs
		}
	}
	for i := range costs {
		if gemmMs > 0 {
			costs[i].MeasuredUnits = costs[i].MeasuredMs / gemmMs * 2
		}
	}

	if out != nil {
		fmt.Fprintf(out, "# Table I — kernel costs at nb=%d (units of nb³ flops; measured on this host, GEMM ≡ 2)\n", nb)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "kernel\tmodel units\tmeasured ms\tmeasured units")
		for _, c := range costs {
			fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.2f\n", c.Kernel, c.ModelUnits, c.MeasuredMs, c.MeasuredUnits)
		}
		w.Flush()
	}
	return costs
}
