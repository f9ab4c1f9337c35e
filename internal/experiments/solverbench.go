package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"time"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/flops"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/sim"
	"luqr/internal/tile"
	"luqr/internal/tree"

	"math/rand"
)

// SolverBenchEntry is one end-to-end factorization measurement at one worker
// count: best-of-reps wall time and the paper's fake GFLOP/s ((2/3)N³ over
// wall), plus the scheduler's dispatch accounting for that best run.
type SolverBenchEntry struct {
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	GFlops       float64 `json:"gflops"`
	LaneHits     int64   `json:"lane_hits,omitempty"`
	LocalHits    int64   `json:"local_hits,omitempty"`
	Steals       int64   `json:"steals,omitempty"`
	LocalHitRate float64 `json:"local_hit_rate,omitempty"`
}

// NBSweepEntry is one end-to-end measurement at one tile order (single
// worker): the production-tile-size sweep that picks the nb default.
type NBSweepEntry struct {
	NB          int     `json:"nb"`
	Tiles       int     `json:"tiles"` // tiles per side, ⌈N/nb⌉ after padding
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops"`
}

// SimScalingEntry is one point of the simulated worker-scaling curve: the
// measured single-worker trace replayed on a w-core machine model (per-core
// rate calibrated from the trace itself). It answers "what does this DAG do
// with w cores" on a host that cannot run w cores for real.
type SimScalingEntry struct {
	Workers         int     `json:"workers"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	GFlops          float64 `json:"gflops"`
	Speedup         float64 `json:"speedup_vs_1"`
}

// MixedBenchEntry is one precision point of the mixed-precision section: one
// operator factored under one Config.Precision setting with the MAX
// criterion (auto mode needs its margins; RANDOM reports none), 1 worker,
// best of reps. Two operators are swept: the canonical random matrix (mostly
// QR steps under MAX — auto barely engages) and a diagonally dominant one
// (all-LU, GEMM-dominated — the class auto is for). HPL3 is the refined
// backward error — the accuracy side of the accuracy-vs-speed trade.
type MixedBenchEntry struct {
	Matrix      string  `json:"matrix,omitempty"`
	Precision   string  `json:"precision"`
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops"`
	F32Steps    int     `json:"f32_steps"`
	// QRSteps counts elimination steps taken as QR. On the QR-heavy random
	// operator it is most of the steps, so the forced-f32 row's wall delta
	// against f64 is dominated by the f32 QR update kernels — the quantity
	// the float32 TRMM/GEMM couplings and step-resident stacks target.
	QRSteps   int `json:"qr_steps,omitempty"`
	Demotions int `json:"demotions"`
	// F32Epochs counts tile promotions into float32 residency and Conversions
	// the epoch-boundary conversion passes they cost (ConvMS their wall time);
	// zero for the f64 row, where the residency store is never built.
	F32Epochs   int     `json:"f32_epochs,omitempty"`
	Conversions int     `json:"conversions,omitempty"`
	ConvMS      float64 `json:"conv_ms,omitempty"`
	RefineIters int     `json:"refine_iters"`
	HPL3        float64 `json:"hpl3"`
}

// DispatchBenchEntry is one scheduler-overhead measurement: mean nanoseconds
// per task for a flood of no-op tasks (the engine's bookkeeping cost with
// zero kernel work to hide it).
type DispatchBenchEntry struct {
	Workers   int     `json:"workers"`
	NsPerTask float64 `json:"ns_per_task"`
}

// SolverBenchReport is the schema of BENCH_solver.json. Schema 2 (the
// blocked-panel rework) measures at production sizes — N=4096, nb∈{128,192,
// 256} — instead of the schema-1 scheduler-bound N=768/nb=16 point, and adds
// a simulated DAG-scaling curve next to the measured worker sweep: when the
// host exposes fewer cores than the sweep asks for, the measured curve is
// necessarily flat, and the dependency-limited speedup comes from replaying
// one measured trace on a w-core machine model (clearly labeled as
// simulated). The schema-1 seed baseline is kept verbatim, with its own
// configuration recorded, so the before/after is visible from the file
// alone. Regenerate with
//
//	go run ./cmd/luqr-bench -sweep-workers BENCH_solver.json
type SolverBenchReport struct {
	Schema   int    `json:"schema"`
	Go       string `json:"go"`
	GoArch   string `json:"goarch"`
	MaxProcs int    `json:"maxprocs"` // the host's real parallelism
	N        int    `json:"n"`
	NB       int    `json:"nb"`
	Grid     string `json:"grid"`
	Reps     int    `json:"reps"`

	Warnings []string `json:"warnings,omitempty"`

	NBSweep []NBSweepEntry     `json:"nb_sweep"`
	Solver  []SolverBenchEntry `json:"solver"`
	Mixed   []MixedBenchEntry  `json:"mixed"`

	SimNote         string            `json:"sim_note"`
	SimCriticalPath float64           `json:"sim_critical_path_s"`
	SimParallelism  float64           `json:"sim_parallelism"` // Σbusy / critical path
	SimSolver       []SimScalingEntry `json:"solver_simulated"`

	SeedN        int                  `json:"seed_n"`
	SeedNB       int                  `json:"seed_nb"`
	SeedSolver   []SolverBenchEntry   `json:"seed_solver_baseline"`
	SeedDispatch []DispatchBenchEntry `json:"seed_dispatch_baseline"`
	Dispatch     []DispatchBenchEntry `json:"dispatch"`
}

// SolverBenchWorkers is the worker sweep of the scaling experiment, both
// measured and simulated.
var SolverBenchWorkers = []int{1, 2, 4, 8, 16}

// SolverBenchNBs is the production tile-order sweep of schema 2.
var SolverBenchNBs = []int{128, 192, 256}

// Canonical schema-2 solver-bench configuration: large enough that kernels,
// not scheduling, decide the rate (21×21 tiles at nb=192), with nb picked by
// the nb sweep itself. The schema-1 configuration (N=768, nb=16 — 48×48
// tiles, ~3.5k tasks, deliberately scheduler-bound) survives as the seed
// baseline's recorded shape.
const (
	SolverBenchDefaultN  = 4096
	SolverBenchDefaultNB = 192

	seedSolverN  = 768
	seedSolverNB = 16
)

// seedSolverBaseline records the worker sweep of the single-heap engine
// (global mutex + cond.Broadcast on every completion) measured on the
// reference host — a single-core Intel Xeon @ 2.10GHz, go1.24 — immediately
// before the work-stealing rewrite, best of 5 reps at the schema-1
// configuration (N=768, nb=16, 2×2 grid, LUQR, RANDOM α=50,
// FlatTS/Fibonacci, seed 1, tracing off). The single-heap engine had no
// dispatch counters, so only wall/GFLOP/s are recorded.
var seedSolverBaseline = []SolverBenchEntry{
	{Workers: 1, WallSeconds: 0.1926, GFlops: 1.568},
	{Workers: 2, WallSeconds: 0.1857, GFlops: 1.626},
	{Workers: 4, WallSeconds: 0.1944, GFlops: 1.554},
	{Workers: 8, WallSeconds: 0.1784, GFlops: 1.693},
	{Workers: 16, WallSeconds: 0.2049, GFlops: 1.474},
}

// seedDispatchBaseline is the same host's single-heap per-task overhead:
// 200000 no-op tasks, writes round-robin over 64 handles, best of 5.
var seedDispatchBaseline = []DispatchBenchEntry{
	{Workers: 1, NsPerTask: 432.1},
	{Workers: 2, NsPerTask: 473.7},
	{Workers: 4, NsPerTask: 466.7},
	{Workers: 8, NsPerTask: 548.2},
	{Workers: 16, NsPerTask: 474.3},
}

// dispatchTasks and dispatchHandles replicate the seed baseline's dispatch
// harness exactly; changing either invalidates the before/after comparison.
const (
	dispatchTasks   = 200000
	dispatchHandles = 64
)

// measureDispatch floods one engine with no-op writer tasks spread
// round-robin over a pool of handles (64 independent WAW chains) and returns
// the mean wall nanoseconds per task, best of reps.
func measureDispatch(workers, reps int) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		e := runtime.NewEngine(runtime.Config{Workers: workers})
		hs := make([]*runtime.Handle, dispatchHandles)
		for i := range hs {
			hs[i] = e.NewHandle("x", 8, 0)
		}
		start := time.Now()
		for i := 0; i < dispatchTasks; i++ {
			e.Submit(runtime.TaskSpec{Name: "t", Accesses: []runtime.Access{runtime.W(hs[i%dispatchHandles])}})
		}
		e.Wait()
		ns := float64(time.Since(start).Nanoseconds()) / dispatchTasks
		e.Close()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// SolverBenchOptions parameterizes the sweep; zero values take the schema-2
// defaults (N=4096, nb=192, best of 3, the standard worker and nb sweeps).
type SolverBenchOptions struct {
	N, NB, Reps int
	Workers     []int // measured + simulated worker sweep
	NBs         []int // tile-order sweep (run at 1 worker)
}

func (o SolverBenchOptions) withDefaults() SolverBenchOptions {
	if o.N <= 0 {
		o.N = SolverBenchDefaultN
	}
	if o.NB <= 0 {
		o.NB = SolverBenchDefaultNB
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Workers) == 0 {
		o.Workers = SolverBenchWorkers
	}
	if len(o.NBs) == 0 {
		o.NBs = SolverBenchNBs
	}
	return o
}

// solverBenchConfig is the canonical hybrid run of the sweep: LUQR with the
// reproducible RANDOM criterion (α=50) on a 2×2 grid, FlatTS/Fibonacci.
func solverBenchConfig(nb, workers int, traceOn bool) core.Config {
	return core.Config{
		Alg: core.LUQR, NB: nb, Grid: tile.NewGrid(2, 2),
		Criterion: criteria.Random{Alpha: 50}, Seed: 1, Workers: workers,
		IntraTree: tree.FlatTS, InterTree: tree.Fibonacci, Trace: traceOn,
	}
}

// WriteSolverBench runs the schema-2 solver benchmark — the measured worker
// sweep and tile-order sweep at production sizes, the simulated DAG-scaling
// curve, and the dispatch microbenchmark — writes the JSON report to out,
// and prints a human-readable table to table (which may be nil).
func WriteSolverBench(o SolverBenchOptions, out, table io.Writer) error {
	o = o.withDefaults()
	if table == nil {
		table = io.Discard
	}
	rep := SolverBenchReport{
		Schema:       2,
		Go:           goruntime.Version(),
		GoArch:       goruntime.GOARCH,
		MaxProcs:     goruntime.GOMAXPROCS(0),
		N:            o.N,
		NB:           o.NB,
		Grid:         "2x2",
		Reps:         o.Reps,
		SeedN:        seedSolverN,
		SeedNB:       seedSolverNB,
		SeedSolver:   seedSolverBaseline,
		SeedDispatch: seedDispatchBaseline,
	}
	warn := func(format string, args ...any) {
		w := fmt.Sprintf(format, args...)
		rep.Warnings = append(rep.Warnings, w)
		fmt.Fprintf(table, "warning: %s\n", w)
	}
	// core.Run pads N to the next tile boundary (§II-D.2), so any nb ≤ N is
	// legal; tile counts below are the padded (ceiling) counts.
	nt := (o.N + o.NB - 1) / o.NB
	for _, w := range o.Workers {
		if nt < w {
			warn("nb=%d yields a %d×%d tile grid — fewer tile columns (%d) than workers (%d); scheduling will dominate at w=%d",
				o.NB, nt, nt, nt, w, w)
		}
	}

	rng := rand.New(rand.NewSource(1))
	a := matgen.Random(o.N, rng)
	b := matgen.RandomVector(o.N, rng)
	total := flops.LUTotal(o.N)

	// Measured worker sweep at the canonical (N, nb). On a host with fewer
	// real cores than the sweep asks for, extra workers only add contention;
	// the curve stays honest (and flat) — the simulated section below is the
	// dependency-limited view.
	fmt.Fprintf(table, "# Worker scaling (measured) — N=%d nb=%d grid=%s, LUQR RANDOM(α=50), best of %d, GOMAXPROCS=%d\n",
		o.N, o.NB, rep.Grid, o.Reps, rep.MaxProcs)
	fmt.Fprintf(table, "%-8s  %-10s  %-8s  %-10s  %-10s  %-8s  %-9s  %s\n",
		"workers", "wall(s)", "GF/s", "lane", "local", "steals", "local%", "GF/s vs seed")
	var oneWorker SolverBenchEntry
	for _, w := range o.Workers {
		var best SolverBenchEntry
		for r := 0; r < o.Reps; r++ {
			res, err := core.Run(a, b, solverBenchConfig(o.NB, w, false))
			if err != nil {
				return err
			}
			wall := res.Report.WallTime.Seconds()
			if best.WallSeconds == 0 || wall < best.WallSeconds {
				c := res.Report.Sched
				best = SolverBenchEntry{
					Workers: w, WallSeconds: wall,
					GFlops:   flops.GFlops(total, wall),
					LaneHits: c.LaneHits, LocalHits: c.LocalHits, Steals: c.Steals,
					LocalHitRate: c.LocalHitRate(),
				}
			}
		}
		rep.Solver = append(rep.Solver, best)
		if w == 1 {
			oneWorker = best
		}
		vs := "-"
		for _, s := range seedSolverBaseline {
			if s.Workers == w && s.GFlops > 0 {
				// The seed ran a different (N, nb); wall times are not
				// comparable across sizes, sustained rates are.
				vs = fmt.Sprintf("%.1f×", best.GFlops/s.GFlops)
			}
		}
		fmt.Fprintf(table, "%-8d  %-10.4f  %-8.3f  %-10d  %-10d  %-8d  %-9.1f  %s\n",
			w, best.WallSeconds, best.GFlops, best.LaneHits, best.LocalHits, best.Steals,
			100*best.LocalHitRate, vs)
	}

	// Tile-order sweep at 1 worker: which production nb wins end-to-end.
	fmt.Fprintf(table, "\n# Tile-order sweep (measured) — N=%d, 1 worker, best of %d\n", o.N, o.Reps)
	fmt.Fprintf(table, "%-6s  %-7s  %-10s  %s\n", "nb", "tiles", "wall(s)", "GF/s")
	for _, nb := range o.NBs {
		if nb > o.N {
			warn("nb sweep skips nb=%d: larger than N=%d", nb, o.N)
			continue
		}
		e := NBSweepEntry{NB: nb, Tiles: (o.N + nb - 1) / nb}
		if nb == o.NB && oneWorker.WallSeconds > 0 {
			e.WallSeconds, e.GFlops = oneWorker.WallSeconds, oneWorker.GFlops
		} else {
			bestWall := 0.0
			for r := 0; r < o.Reps; r++ {
				res, err := core.Run(a, b, solverBenchConfig(nb, 1, false))
				if err != nil {
					return err
				}
				if wall := res.Report.WallTime.Seconds(); bestWall == 0 || wall < bestWall {
					bestWall = wall
				}
			}
			e.WallSeconds, e.GFlops = bestWall, flops.GFlops(total, bestWall)
		}
		rep.NBSweep = append(rep.NBSweep, e)
		fmt.Fprintf(table, "%-6d  %-7d  %-10.4f  %.3f\n", e.NB, e.Tiles, e.WallSeconds, e.GFlops)
	}

	// Mixed-precision sweep at 1 worker: two operators under each
	// Config.Precision setting, with the MAX criterion so auto mode has the
	// margins it decides on. The random operator takes mostly QR steps at
	// α=100 (auto barely engages — honest null result); the diagonally
	// dominant one is all-LU with deep margins, so every step licenses
	// float32 and the GEMM-dominated trailing updates run resident — the
	// configuration where auto must beat f64 wall. Wall time is the speed
	// side; the refined HPL3, the f32-step/demotion/epoch counts, and the
	// refinement rounds are the accuracy side. The validator gates HPL3 on
	// the §V-A acceptance band — the "mixed run refines to tolerance" smoke
	// assertion — and rejects f32-stepping rows with unwired epoch counters.
	fmt.Fprintf(table, "\n# Mixed precision (measured) — N=%d nb=%d, MAX(α=100), 1 worker, best of %d\n", o.N, o.NB, o.Reps)
	fmt.Fprintf(table, "%-8s  %-10s  %-10s  %-8s  %-10s  %-9s  %-10s  %-7s  %-6s  %-9s  %-7s  %s\n",
		"matrix", "precision", "wall(s)", "GF/s", "f32 steps", "qr steps", "demotions", "epochs", "conv", "conv(ms)", "refine", "hpl3")
	diagRng := rand.New(rand.NewSource(1))
	for _, op := range []struct {
		name string
		a    *mat.Matrix
		b    []float64
	}{
		{"random", a, b},
		{"diagdom", matgen.DiagDominant(o.N, diagRng), matgen.RandomVector(o.N, diagRng)},
	} {
		for _, prec := range []core.Precision{core.PrecisionF64, core.PrecisionAuto, core.PrecisionF32} {
			var best *core.Report
			for r := 0; r < o.Reps; r++ {
				cfg := solverBenchConfig(o.NB, 1, false)
				cfg.Criterion = criteria.Max{Alpha: 100}
				cfg.Precision = prec
				res, err := core.Run(op.a, op.b, cfg)
				if err != nil {
					return err
				}
				if best == nil || res.Report.WallTime < best.WallTime {
					best = res.Report
				}
			}
			wall := best.WallTime.Seconds()
			e := MixedBenchEntry{
				Matrix:    op.name,
				Precision: prec.String(), WallSeconds: wall, GFlops: flops.GFlops(total, wall),
				F32Steps: best.F32Steps, QRSteps: best.QRSteps, Demotions: best.Demotions,
				F32Epochs: best.F32Epochs, Conversions: best.Conversions,
				ConvMS:      float64(best.ConvTime.Microseconds()) / 1000,
				RefineIters: best.RefineIters, HPL3: best.HPL3,
			}
			if math.IsNaN(e.HPL3) {
				// NaN is not representable in JSON; -1 is the explicit "broken"
				// marker the validator rejects.
				warn("mixed %s/%s run produced a NaN backward error", e.Matrix, e.Precision)
				e.HPL3 = -1
			}
			rep.Mixed = append(rep.Mixed, e)
			fmt.Fprintf(table, "%-8s  %-10s  %-10.4f  %-8.3f  %-10d  %-9d  %-10d  %-7d  %-6d  %-9.1f  %-7d  %.3g\n",
				e.Matrix, e.Precision, e.WallSeconds, e.GFlops, e.F32Steps, e.QRSteps, e.Demotions,
				e.F32Epochs, e.Conversions, e.ConvMS, e.RefineIters, e.HPL3)
		}
	}

	// Simulated DAG scaling: trace one single-worker run, calibrate the
	// model's per-core rate from that trace's own busy time, and replay the
	// DAG on 1..w cores of one node with communication neutralized. This is
	// the dependency-limited speedup of the real task graph, not a
	// measurement of w real cores.
	res, err := core.Run(a, b, solverBenchConfig(o.NB, 1, true))
	if err != nil {
		return err
	}
	trace := res.Report.Trace
	stats := runtime.ComputeStats(trace)
	busy := stats.TotalBusy().Seconds()
	totalFlops := 0.0
	for _, t := range trace {
		totalFlops += t.Flops
	}
	coreRate := 1.0
	if busy > 0 && totalFlops > 0 {
		coreRate = totalFlops / busy / 1e9 // calibrated GFLOP/s per core
	}
	model := sim.Machine{
		Name: "host-model", Nodes: 1, CoresPerNode: 1, CoreGFlops: coreRate,
		LatencySec: 0, BandwidthBps: 1e18, OverheadSec: 0,
	}
	cp := sim.CriticalPath(trace, coreRate)
	rep.SimCriticalPath = cp
	if cp > 0 {
		rep.SimParallelism = busy / cp
	}
	rep.SimNote = fmt.Sprintf(
		"SIMULATED: one measured %d-task single-worker trace (N=%d nb=%d) replayed on a w-core machine model at the trace's own %.2f GFLOP/s/core; shows dependency-limited scaling, not w real cores (host GOMAXPROCS=%d)",
		len(trace), o.N, o.NB, coreRate, rep.MaxProcs)
	fmt.Fprintf(table, "\n# Worker scaling (SIMULATED DAG replay) — %s\n", rep.SimNote)
	fmt.Fprintf(table, "%-8s  %-12s  %-8s  %s\n", "workers", "makespan(s)", "GF/s", "speedup")
	base := 0.0
	for _, w := range o.Workers {
		model.CoresPerNode = w
		sr := sim.Simulate(trace, model, nil)
		e := SimScalingEntry{Workers: w, MakespanSeconds: sr.Makespan}
		if sr.Makespan > 0 {
			e.GFlops = flops.GFlops(total, sr.Makespan)
		}
		if w == 1 {
			base = sr.Makespan
		}
		if base > 0 && sr.Makespan > 0 {
			e.Speedup = base / sr.Makespan
		}
		rep.SimSolver = append(rep.SimSolver, e)
		fmt.Fprintf(table, "%-8d  %-12.4f  %-8.3f  %.2f×\n", w, e.MakespanSeconds, e.GFlops, e.Speedup)
	}
	fmt.Fprintf(table, "critical path %.4fs, average parallelism %.1f (Σbusy/critical-path: the DAG's speedup ceiling)\n",
		cp, rep.SimParallelism)

	fmt.Fprintf(table, "\n# Dispatch overhead — %d no-op tasks over %d WAW chains, best of %d\n",
		dispatchTasks, dispatchHandles, o.Reps)
	fmt.Fprintf(table, "%-8s  %-12s  %s\n", "workers", "ns/task", "vs seed")
	for _, w := range o.Workers {
		ns := measureDispatch(w, o.Reps)
		rep.Dispatch = append(rep.Dispatch, DispatchBenchEntry{Workers: w, NsPerTask: ns})
		vs := "-"
		for _, s := range seedDispatchBaseline {
			if s.Workers == w && ns > 0 {
				vs = fmt.Sprintf("%+.1f%%", 100*(s.NsPerTask-ns)/s.NsPerTask)
			}
		}
		fmt.Fprintf(table, "%-8d  %-12.1f  %s\n", w, ns, vs)
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
