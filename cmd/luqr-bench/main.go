// Command luqr-bench regenerates the tables and figures of the paper's
// evaluation section (§V):
//
//	luqr-bench -exp table1              Table I   kernel operation counts
//	luqr-bench -exp fig2                Figure 2  criteria sweeps on random matrices
//	luqr-bench -exp table2              Table II  performance ladder (Max criterion)
//	luqr-bench -exp fig3                Figure 3  stability on special matrices
//	luqr-bench -exp table3              Table III the special-matrix set
//	luqr-bench -exp overhead            §V-B      decision-path overhead
//	luqr-bench -exp ablation            DESIGN.md trees / pivot scope / LU variants
//	luqr-bench -exp tune                §VII      auto-tune α per criterion
//	luqr-bench -exp calu                §VI-D     CALU (tournament pivoting) comparison
//	luqr-bench -exp kappa               extension conditioning sweep (randsvd)
//	luqr-bench -exp machines            extension platform-sensitivity sweep
//	luqr-bench -exp breakdown           measured vs. simulated per-kernel breakdown
//	luqr-bench -exp all                 every experiment above but kappa, machines
//	                                    and tune (the default)
//	luqr-bench -json BENCH_kernels.json machine-readable kernel rates (GFLOP/s, ns/op)
//	luqr-bench -diff-kernels BENCH_kernels.json [-diff-baseline OLD.json]
//	                                    benchstat-style kernel before/after table;
//	                                    without -diff-baseline, compares the file's
//	                                    committed seed baseline vs. its current run
//	luqr-bench -tune-probe -n 512 [-tune-file tuning.json]
//	                                    run the nb/ib/workers autotuner probe for
//	                                    one matrix class, print the chosen point,
//	                                    and persist/reuse the tuning table
//	luqr-bench -alpha-learn -n 256 [-reps 3] [-tune-file tuning.json]
//	                                    exercise the online α learner from the
//	                                    CLI: run -reps hybrid factorizations on
//	                                    the class, resolve α from the tuning
//	                                    table before each (default 100 until
//	                                    learned), feed each outcome back, and
//	                                    print the learned per-class α
//
// Default sizes run in minutes on a laptop; pass -n/-nb (e.g. -n 20000
// -nb 240) for the paper-scale experiment. End-to-end solver and service
// timings are the repository benchmark's (benchmark/run.sh), and a task
// timeline of one run is `luqr -timeline out.json -stats`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/experiments"
	"luqr/internal/matgen"
	"luqr/internal/tile"
	"luqr/internal/tune"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: table1, fig2, table2, fig3, table3, overhead, ablation, calu, kappa, machines, tune, breakdown, or all (every one but kappa, machines and tune)")
		n            = flag.Int("n", 480, "matrix order")
		nb           = flag.Int("nb", 40, "tile order")
		p            = flag.Int("p", 4, "grid rows")
		q            = flag.Int("q", 4, "grid columns")
		reps         = flag.Int("reps", 3, "random matrices per configuration")
		seed         = flag.Int64("seed", 1, "base random seed")
		workers      = flag.Int("workers", 0, "runtime workers (0 = GOMAXPROCS)")
		jsonOut      = flag.String("json", "", "write per-kernel GFLOP/s and ns/op as JSON to this path (e.g. BENCH_kernels.json) and exit")
		diffKernels  = flag.String("diff-kernels", "", "print a benchstat-style kernel comparison for this BENCH_kernels.json and exit")
		diffBaseline = flag.String("diff-baseline", "", "older BENCH_kernels.json to diff against (with -diff-kernels; default: the file's own seed baseline)")
		tuneProbe    = flag.Bool("tune-probe", false, "run the autotuner probe for the class (-n, luqr), print the chosen point, and exit")
		alphaLearn   = flag.Bool("alpha-learn", false, "run -reps hybrid factorizations for the class (-n, luqr), learn α online from each outcome, print the learned value, and exit")
		tuneFile     = flag.String("tune-file", "", "tuning-table path for -tune-probe/-alpha-learn (empty = in-memory only)")
	)
	flag.Parse()

	if *tuneProbe {
		tuner := tune.New(tune.Options{Path: *tuneFile, Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "luqr-bench: "+format+"\n", args...)
		}})
		e, probed, err := tuner.Tune(*n, "luqr")
		if err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
		action := "table hit (probe skipped)"
		if probed {
			action = "probed"
		}
		fmt.Printf("tune: class luqr/n%d %s → %s (%.2f GF/s, machine %s)\n",
			*n, action, e.Point, e.GFlops, tune.MachineID())
		if *tuneFile != "" {
			fmt.Printf("tuning table: %s\n", *tuneFile)
		}
		return
	}

	if *alphaLearn {
		tuner := tune.New(tune.Options{Path: *tuneFile, Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "luqr-bench: "+format+"\n", args...)
		}})
		gen, err := matgen.ByName("random")
		if err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
		const crit = "max"
		for i := 0; i < *reps; i++ {
			// Resolve α exactly the way the service does for a request with
			// alpha unset: the class's learned value, else the default 100.
			alpha, src := 100.0, "default"
			if st, ok := tuner.Alpha(*n, "luqr", crit); ok {
				alpha, src = st.Alpha, "learned"
			}
			c, err := criteria.Parse(crit, alpha)
			if err != nil {
				fmt.Fprintln(os.Stderr, "luqr-bench:", err)
				os.Exit(1)
			}
			a := gen.Gen(*n, rand.New(rand.NewSource(*seed+int64(i))))
			b := make([]float64, *n)
			for j := range b {
				b[j] = 1
			}
			res, err := core.Run(a, b, core.Config{
				NB: *nb, Criterion: c, TrackGrowth: true,
				Workers: *workers, Seed: *seed + int64(i),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "luqr-bench:", err)
				os.Exit(1)
			}
			r := res.Report
			upd, _ := tuner.Observe(r.N, r.Alg.String(), tune.Observation{
				Criterion: crit, Alpha: alpha, FracLU: r.FracLU(),
				Growth: r.Growth, PeakGrowth: r.PeakGrowth,
				HPL3: r.HPL3, Breakdown: r.Breakdown,
			})
			fmt.Printf("alpha-learn[%d]: ran α=%g (%s), fLU=%.2f peak-growth=%.3g hpl3=%.3g → α=%g (%d samples)\n",
				i, alpha, src, r.FracLU(), r.PeakGrowth, r.HPL3, upd.Alpha, upd.Samples)
		}
		st, ok := tuner.Alpha(*n, "luqr", crit)
		if !ok {
			fmt.Fprintln(os.Stderr, "luqr-bench: no α learned (criterion not learnable?)")
			os.Exit(1)
		}
		fmt.Printf("alpha-learn: applied learned α=%g for class luqr/n%d (criterion %s, %d samples, %d backoffs)\n",
			st.Alpha, *n, crit, st.Samples, st.Backoffs)
		if *tuneFile != "" {
			fmt.Printf("tuning table: %s\n", *tuneFile)
		}
		return
	}

	if *diffKernels != "" {
		newF, err := os.Open(*diffKernels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
		defer newF.Close()
		var oldF *os.File
		if *diffBaseline != "" {
			if oldF, err = os.Open(*diffBaseline); err != nil {
				fmt.Fprintln(os.Stderr, "luqr-bench:", err)
				os.Exit(1)
			}
			defer oldF.Close()
		}
		var oldR io.Reader
		if oldF != nil {
			oldR = oldF
		}
		if err := experiments.KernelBenchDiff(oldR, newF, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = experiments.WriteKernelBench(experiments.KernelBenchNBs, *reps, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		return
	}

	o := experiments.Options{
		N: *n, NB: *nb, Grid: tile.NewGrid(*p, *q),
		Reps: *reps, Seed: *seed, Workers: *workers,
	}
	out := os.Stdout

	runOne := func(name string) error {
		switch name {
		case "table1":
			experiments.Table1(*nb, 3, out)
		case "fig2":
			_, err := experiments.Fig2(o, out)
			return err
		case "table2":
			_, err := experiments.Table2(o, out)
			return err
		case "fig3":
			_, err := experiments.Fig3(o, out)
			return err
		case "table3":
			fmt.Fprintln(out, "# Table III — the special-matrix set")
			rng := rand.New(rand.NewSource(*seed))
			for i, e := range matgen.SpecialSet() {
				a := e.Gen(64, rng)
				fmt.Fprintf(out, "%2d  %-10s  ‖A‖₁=%-12.4g  %s\n", i+1, e.Name, a.Norm1(), e.Desc)
			}
		case "overhead":
			_, err := experiments.Overhead(o, out)
			return err
		case "ablation":
			_, err := experiments.Ablation(o, out)
			return err
		case "calu":
			_, err := experiments.CALUCompare(o, out)
			return err
		case "kappa":
			_, err := experiments.Kappa(o, out)
			return err
		case "machines":
			_, err := experiments.MachineSweep(o, out)
			return err
		case "breakdown":
			_, err := experiments.Breakdown(o, out)
			return err
		case "tune":
			fmt.Fprintln(out, "# Auto-tuned α per criterion (§VII future work): largest α with mean HPL3 ≤ 2× LUPP")
			for _, c := range []string{"max", "sum", "mumps"} {
				if _, _, _, err := experiments.TuneAlpha(o, c, 2.0, out); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table3", "fig2", "table2", "fig3", "overhead", "ablation", "calu", "breakdown"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := runOne(name); err != nil {
			fmt.Fprintln(os.Stderr, "luqr-bench:", err)
			os.Exit(1)
		}
	}
}
