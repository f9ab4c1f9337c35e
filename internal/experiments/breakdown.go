package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/sim"
	"luqr/internal/tree"
)

// timelineConfig is the canonical observability configuration: a hybrid run
// that exercises every kernel family of the paper's Table I. The Random
// criterion (reproducible per step from the seed) mixes LU steps (SWPTRSM /
// TRSM / GEMM) with QR steps; the FlatTS intra-domain tree emits TSQRT /
// TSMQR and the Fibonacci inter-domain tree adds the TTQRT / TTMQR merges.
func timelineConfig(o Options) core.Config {
	return core.Config{
		Alg: core.LUQR, NB: o.NB, Grid: o.Grid,
		Criterion: criteria.Random{Alpha: 50},
		IntraTree: tree.FlatTS, InterTree: tree.Fibonacci,
		Workers: o.Workers, Seed: o.Seed, Trace: true,
	}
}

// Breakdown replays one measured trace through the machine-model simulator
// and prints the two per-kernel time breakdowns side by side: the wall-clock
// core-seconds measured on this host next to the core-seconds the simulator
// charges on the machine model. The absolute scales differ (local cores vs.
// the modeled cluster); the shares are the comparable columns — they show
// whether the simulated cost ratios that the §V performance numbers rest on
// match the measured ones.
func Breakdown(o Options, out io.Writer) (*runtime.Stats, error) {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	a := matgen.Random(o.N, rng)
	b := matgen.RandomVector(o.N, rng)

	res, err := core.Run(a, b, timelineConfig(o))
	if err != nil {
		return nil, err
	}
	trace := res.Report.Trace
	meas := runtime.ComputeStats(trace)
	sr := sim.Simulate(trace, o.Machine, nil)

	measTotal := meas.TotalBusy().Seconds()
	fmt.Fprintf(out, "# Measured vs. simulated breakdown — one trace, two clocks (N=%d nb=%d grid %dx%d)\n",
		o.N, o.NB, o.Grid.P, o.Grid.Q)
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "kernel\tcount\tmeasured\tshare\tsimulated\tshare\t")
	for _, name := range meas.KernelNames() {
		ks := meas.Kernels[name]
		simT := sr.KernelTime[name]
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.1f%%\t%.4fs\t%.1f%%\t\n",
			name, ks.Count, ks.Total.Round(time.Microsecond),
			pct(ks.Total.Seconds(), measTotal), simT, pct(simT, sr.ComputeTime))
	}
	fmt.Fprintf(tw, "total\t%d\t%v\t\t%.4fs\t\t\n",
		meas.Tasks, meas.TotalBusy().Round(time.Microsecond), sr.ComputeTime)
	tw.Flush()
	fmt.Fprintf(out, "measured: span %v on %d workers, utilization %.1f%%, critical path %v\n",
		meas.Span.Round(time.Microsecond), meas.Workers, 100*meas.Utilization(),
		meas.CriticalPath.Round(time.Microsecond))
	// Gap attribution: how much of the remaining wall time is structural.
	// Critical-path occupancy says how much of the span the serial panel
	// chain covers; Σbusy / critical-path is the DAG's speedup ceiling no
	// scheduler can beat.
	if span, cp := meas.Span.Seconds(), meas.CriticalPath.Seconds(); span > 0 && cp > 0 {
		fmt.Fprintf(out, "gap attribution: critical-path occupancy %.1f%% of span; average parallelism %.1f (Σbusy/critical-path = speedup ceiling)\n",
			100*cp/span, meas.TotalBusy().Seconds()/cp)
	}
	fmt.Fprintf(out, "simulated on %s: makespan %.4fs, critical path %.4fs, %d messages, %.2f MB\n",
		o.Machine.Name, sr.Makespan, sim.CriticalPath(trace, o.Machine.CoreGFlops),
		sr.Messages, float64(sr.CommBytes)/1e6)

	// Conversion attribution: rerun the same operator in auto precision with
	// the Max criterion (Random reports no margins, so auto would never
	// license float32) and charge the epoch-boundary conversions against the
	// tasks that paid them. Conversions-per-epoch is the number to watch: the
	// resident store converts once per tile epoch, not once per task, so it
	// stays O(1) while the tasks touching the tile within the epoch grow.
	mcfg := timelineConfig(o)
	mcfg.Criterion = criteria.Max{Alpha: 100}
	mcfg.Precision = core.PrecisionAuto
	mres, err := core.Run(a, b, mcfg)
	if err != nil {
		return nil, err
	}
	mr := mres.Report
	mstats := runtime.ComputeStats(mr.Trace)
	fmt.Fprintf(out, "\n# Conversion attribution — same operator, auto precision, MAX(α=100)\n")
	if mr.F32Epochs > 0 {
		fmt.Fprintf(out, "auto run: %d f32 steps, %d demotions; %d tile epochs, %d conversions (%.2f per epoch) costing %v (%.2f%% of %v busy)\n",
			mr.F32Steps, mr.Demotions, mr.F32Epochs, mr.Conversions,
			float64(mr.Conversions)/float64(mr.F32Epochs), mr.ConvTime,
			pct(mr.ConvTime.Seconds(), mstats.TotalBusy().Seconds()), mstats.TotalBusy().Round(time.Microsecond))
		fmt.Fprintf(out, "trace-charged conversion time: %v (per-kernel split in the stats table's conv column)\n",
			mstats.ConvTotal.Round(time.Microsecond))
	} else {
		fmt.Fprintf(out, "auto run licensed no float32 steps at this size (margins above the comfort bound); no epochs to attribute\n")
	}
	return meas, nil
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}
