// Command luqr factors and solves one dense linear system Ax = b with a
// chosen algorithm, criterion and process grid, and reports the paper's
// stability and performance metrics for the run.
//
// Examples:
//
//	luqr -alg luqr -criterion max -alpha 100 -n 960 -nb 40 -p 4 -q 4
//	luqr -alg hqr -matrix wilkinson -n 480 -nb 40
//	luqr -alg lunopiv -matrix fiedler -n 320 -nb 40 -sim
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/dist"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/sim"
	"luqr/internal/tile"
	"luqr/internal/tree"

	"math/rand"
	goruntime "runtime"
	"sort"
)

func main() {
	var (
		algName   = flag.String("alg", "luqr", "algorithm: luqr, lunopiv, luincpiv, lupp, hqr, calu, hlu")
		matName   = flag.String("matrix", "random", "matrix: random, diagdom, or a Table III name (hilb, wilkinson, foster, ...)")
		n         = flag.Int("n", 480, "matrix order N")
		nb        = flag.Int("nb", 40, "tile order")
		p         = flag.Int("p", 4, "process grid rows")
		q         = flag.Int("q", 4, "process grid columns")
		critName  = flag.String("criterion", "max", "criterion for -alg luqr: max, sum, mumps, random, alwayslu, alwaysqr")
		alpha     = flag.Float64("alpha", 100, "criterion threshold α (inf allowed)")
		scope     = flag.String("scope", "domain", "LU pivot scope: domain or tile")
		variant   = flag.String("variant", "a1", "LU-step variant (§II-C): a1, a2, b1, b2")
		precName  = flag.String("precision", "f64", "kernel precision: f64, auto (criterion margin picks f32 per step), f32")
		intraName = flag.String("intra", "greedy", "intra-node reduction tree: flatts, flattt, binary, greedy, fibonacci")
		interName = flag.String("inter", "fibonacci", "inter-node reduction tree")
		workers   = flag.Int("workers", 0, "runtime workers (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 1, "random seed (matrix and random criterion)")
		simulate  = flag.Bool("sim", false, "replay the trace on the Dancer machine model")
		profile   = flag.Bool("profile", false, "with -sim: print parallelism, utilization, and the kernel-time breakdown")
		timeline  = flag.String("timeline", "", "write the measured task timeline as Chrome trace-event JSON to this path (open in chrome://tracing or Perfetto)")
		stats     = flag.Bool("stats", false, "print the measured per-kernel stats table (count, total, mean, max, worker utilization, critical path)")
		verbose   = flag.Bool("v", false, "print per-step decisions")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "luqr:", err)
		os.Exit(1)
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fail(err)
	}
	crit, err := criteria.Parse(*critName, *alpha)
	if err != nil {
		fail(err)
	}
	intra, err := tree.ParseTree(*intraName)
	if err != nil {
		fail(err)
	}
	inter, err := tree.ParseTree(*interName)
	if err != nil {
		fail(err)
	}
	ent, err := matgen.ByName(*matName)
	if err != nil {
		fail(err)
	}
	sc := core.ScopeDomain
	if *scope == "tile" {
		sc = core.ScopeTile
	}
	vr, err := core.ParseVariant(*variant)
	if err != nil {
		fail(err)
	}
	prec, err := core.ParsePrecision(*precName)
	if err != nil {
		fail(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	a := ent.Gen(*n, rng)
	b := matgen.RandomVector(*n, rng)

	cfg := core.Config{
		Alg: alg, NB: *nb, Grid: tile.NewGrid(*p, *q),
		Criterion: crit, Scope: sc, Variant: vr, Precision: prec,
		IntraTree: intra, InterTree: inter,
		Workers: *workers, Seed: *seed,
		Trace: *simulate || *stats || *timeline != "",
	}
	res, err := core.Run(a, b, cfg)
	if err != nil {
		fail(err)
	}
	r := res.Report
	fmt.Println(r)
	wall := r.WallTime.Seconds()
	nw := cfg.Workers
	if nw <= 0 {
		nw = goruntime.GOMAXPROCS(0)
	}
	fmt.Printf("local: %.0f MFLOP/s fake, %.0f MFLOP/s true (wall %.3fs, %d workers)\n",
		1e3*r.FakeGFlops(wall), 1e3*r.TrueGFlops(wall), wall, nw)

	if *stats {
		runtime.ComputeStats(r.Trace).WriteTable(os.Stdout)
		c := r.Sched
		fmt.Printf("scheduler: %d lane, %d local, %d stolen (local-hit rate %.1f%%), %d remote releases, %d parks\n",
			c.LaneHits, c.LocalHits, c.Steals, 100*c.LocalHitRate(), c.RemoteReleases, c.Parks)
	}
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err == nil {
			err = runtime.WriteChromeTrace(f, r.Trace)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("timeline: wrote %s (%d tasks)\n", *timeline, len(r.Trace))
	}

	if *verbose {
		for k, d := range r.Decisions {
			step := "QR"
			if d {
				step = "LU"
			}
			fmt.Printf("  step %3d: %s\n", k, step)
		}
	}

	if *simulate {
		m := sim.Dancer()
		s := sim.Simulate(r.Trace, m, nil)
		fmt.Printf("simulated on %s (%d nodes × %d cores, peak %.0f GFLOP/s):\n",
			m.Name, m.Nodes, m.CoresPerNode, m.PeakGFlops())
		fmt.Printf("  time %.4fs, fake %.1f GFLOP/s (%.1f%% peak), true %.1f GFLOP/s\n",
			s.Makespan, r.FakeGFlops(s.Makespan), 100*r.FakeGFlops(s.Makespan)/m.PeakGFlops(), r.TrueGFlops(s.Makespan))
		fmt.Printf("  %d messages, %.2f MB moved, critical path %.4fs\n",
			s.Messages, float64(s.CommBytes)/1e6, sim.CriticalPath(r.Trace, m.CoreGFlops))
		nodes := dist.PanelNodes(cfg.Grid, 0, r.NT)
		fmt.Printf("  panel 0 spans %d node(s); criterion all-reduce: %d rounds\n",
			len(nodes), dist.AllReduceRounds(len(nodes)))
		if *profile {
			totalCores := float64(m.Nodes * m.CoresPerNode)
			fmt.Printf("  %d tasks, average parallelism %.1f, utilization %.1f%%\n",
				len(r.Trace), s.ComputeTime/s.Makespan, 100*s.ComputeTime/(s.Makespan*totalCores))
			fmt.Println("  core-seconds by kernel:")
			kernels := make([]string, 0, len(s.KernelTime))
			for kname := range s.KernelTime {
				kernels = append(kernels, kname)
			}
			sort.Slice(kernels, func(i, j int) bool { return s.KernelTime[kernels[i]] > s.KernelTime[kernels[j]] })
			for _, kname := range kernels {
				fmt.Printf("    %-8s %8.4fs (%.1f%%)\n", kname, s.KernelTime[kname], 100*s.KernelTime[kname]/s.ComputeTime)
			}
		}
	}
	if math.IsNaN(r.HPL3) || r.Breakdown {
		os.Exit(2)
	}
}
