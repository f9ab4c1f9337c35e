package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/flops"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	rt "luqr/internal/runtime"
	"luqr/internal/tile"
)

// The factor workloads solve one N=2304 operator on 12×12 tiles of order
// 192 with LUQR variant A1, the Max criterion at α=100, a 2×2 grid, the
// default GREEDY/FIBONACCI trees and 2 runtime workers.
const (
	factorN       = 2304
	factorNB      = 192
	factorWorkers = 2
	setupReps     = 3
	minCalls      = 3
	rhsSalt       = 0x5eed
)

func factorConfig(mixed bool, workers int) core.Config {
	cfg := core.Config{
		Alg:       core.LUQR,
		Variant:   core.VarA1,
		NB:        factorNB,
		Grid:      tile.NewGrid(2, 2),
		Criterion: criteria.Max{Alpha: 100},
		Workers:   workers,
	}
	if mixed {
		cfg.Precision = core.PrecisionAuto
	}
	return cfg
}

// generate builds the seed's operator of the given class and order.
func generate(class string, n int, seed int64) (*mat.Matrix, error) {
	e, err := matgen.ByName(class)
	if err != nil {
		return nil, err
	}
	return e.Gen(n, rand.New(rand.NewSource(seed))), nil
}

// call is one timed core.Run.
type call struct {
	dur time.Duration
	rep *core.Report
}

// solve runs core.Run once, checks its answer outside the timed interval
// and records a span on rec (with the task records as children when
// cfg.Trace).
func solve(r *report, rec *recorder, req int, a *mat.Matrix, b []float64, cfg core.Config) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := core.Run(a, b, cfg)
	t1 := time.Now()
	if err != nil {
		r.tally.failure(err.Error())
		return nil, 0, err
	}
	id := rec.add("core", "core.Run", 0, req, t0, t1)
	rec.addTasks(id, res.Report.Trace)
	r.tally.solution(a, b, res.X, res.Report.Breakdown)
	return res, t1.Sub(t0), nil
}

// factorWindow calls core.Run back to back until the window has passed
// (at least minCalls times) and returns the calls and the last result.
// rec, when set, records the calls' spans.
func factorWindow(r *report, rec *recorder, a *mat.Matrix, b []float64, cfg core.Config, window time.Duration, req *int) ([]call, *core.Result, error) {
	var calls []call
	var last *core.Result
	start := time.Now()
	for time.Since(start) < window || len(calls) < minCalls {
		// Start every call from a collected heap, as testing.B does, so no
		// call pays for garbage an earlier one left.
		goruntime.GC()
		*req++
		res, d, err := solve(r, rec, *req, a, b, cfg)
		if err != nil {
			return nil, nil, err
		}
		calls = append(calls, call{d, res.Report})
		last = res
	}
	return calls, last, nil
}

func durations(calls []call) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = c.dur.Seconds()
	}
	return out
}

func runFactor(o options, r *report, class string, mixed bool) error {
	cfg := factorConfig(mixed, factorWorkers)
	r.header = append(r.header, fmt.Sprintf("core.Run luqr/a1 max α=100 on %s N=%d nb=%d grid 2x2 workers %d precision %s",
		class, factorN, factorNB, factorWorkers, cfg.Precision))

	var a *mat.Matrix
	var b []float64
	var setups []float64
	req := 0
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if a, err = generate(class, factorN, o.seed); err != nil {
			return err
		}
		b = matgen.RandomVector(factorN, rand.New(rand.NewSource(o.seed^rhsSalt)))
		r.rec.add("matgen", class, 0, 0, t0, time.Now())
		req++
		if _, _, err := solve(r, nil, req, a, b, cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := o.window
	if o.trace {
		window /= 2
	}
	calls, last, err := factorWindow(r, nil, a, b, cfg, window, &req)
	if err != nil {
		return err
	}
	secs := durations(calls)
	p50 := median(secs)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.addE2E("setup_s", median(setups), "s", len(setups))
	r.addE2E("op_ms_p50", p50*1e3, "ms", len(secs))
	r.addE2E("ops_per_s", float64(len(secs))/sum(secs), "1/s", len(secs))
	r.addE2E("peak_rss_mb", rss, "MB", len(secs))
	r.addView("solve_s_p50", p50, "s", len(secs))
	r.addView("gflops", flops.GFlops(flops.LUTotal(factorN), p50), "GFLOP/s", len(secs))
	if !o.trace {
		return nil
	}
	return factorLayers(o, r, class, a, b, cfg, calls, last, &req)
}

// kernelTotals sums busy time and model flops per kernel family.
type kernelTotals map[string]struct{ busy, flops float64 }

func (k kernelTotals) add(family string, busySec, fl float64) {
	v := k[family]
	v.busy += busySec
	v.flops += fl
	k[family] = v
}

func (k kernelTotals) busy(families ...string) float64 {
	s := 0.0
	for _, f := range families {
		s += k[f].busy
	}
	return s
}

// qrFamilies are the QR panel and update kernels of a hybrid step.
var qrFamilies = []string{"GEQRT", "UNMQR", "TSQRT", "TSMQR", "TTQRT", "TTMQR"}

// addKernelLayers reports busy seconds per factorization and in-DAG
// GFLOP/s for the kernel families of the LU and QR steps.
func addKernelLayers(r *report, k kernelTotals, runs int) {
	for _, f := range []struct{ metric, family string }{
		{"lapack.unmqr", "UNMQR"}, {"lapack.ttmqr", "TTMQR"}, {"lapack.geqrt", "GEQRT"},
		{"lapack.ttqrt", "TTQRT"}, {"lapack.getrf", "GETRF"},
		{"blas.gemm", "GEMM"}, {"blas.swptrsm", "SWPTRSM"}, {"blas.trsm", "TRSM"},
	} {
		v := k[f.family]
		r.addLayer(f.metric+".busy_s", v.busy/float64(runs), "s", runs)
		rate := 0.0
		if v.busy > 0 {
			rate = v.flops / v.busy / 1e9
		}
		r.addLayer(f.metric+".dag_gflops", rate, "GFLOP/s", runs)
	}
	r.addLayer("criteria.busy_s", k.busy("NORM", "DECIDE")/float64(runs), "s", runs)
	r.addLayer("core.backup.busy_s", k.busy("BACKUP", "RESTORE", "PROPAGATE")/float64(runs), "s", runs)
}

func factorLayers(o options, r *report, class string, a *mat.Matrix, b []float64, cfg core.Config, untraced []call, last *core.Result, req *int) error {
	tcfg := cfg
	tcfg.Trace = true
	traced, _, err := factorWindow(r, r.rec, a, b, tcfg, o.window/2, req)
	if err != nil {
		return err
	}
	k := kernelTotals{}
	var idle, cp, steals, parks, tasks []float64
	for _, c := range traced {
		st := rt.ComputeStats(c.rep.Trace)
		for name, ks := range st.Kernels {
			k.add(name, ks.Total.Seconds(), ks.Flops)
		}
		idle = append(idle, (factorWorkers*st.Span - st.TotalBusy()).Seconds())
		cp = append(cp, st.CriticalPath.Seconds())
		steals = append(steals, float64(c.rep.Sched.Steals))
		parks = append(parks, float64(c.rep.Sched.Parks))
		tasks = append(tasks, float64(st.Tasks))
	}
	n := len(traced)
	addKernelLayers(r, k, n)
	goruntime.GC() // the probes below start from a collected heap

	rep := last.Report
	r.addLayer("criteria.lu_steps", float64(rep.LUSteps), "count", 0)
	r.addLayer("criteria.qr_steps", float64(rep.QRSteps), "count", 0)
	var post, conv []float64
	for _, c := range untraced {
		post = append(post, (c.dur - c.rep.WallTime).Seconds())
		conv = append(conv, c.rep.ConvTime.Seconds())
	}
	r.addLayer("core.post_dag_s", median(post), "s", len(post))
	r.addLayer("core.refine_iters", float64(rep.RefineIters), "count", 0)
	r.addLayer("core.hpl3", median(r.tally.hpl3), "ratio", len(r.tally.hpl3))
	if _, err := probeReplay(r, last, a, factorN, o.seed); err != nil {
		return err
	}
	r.addLayer("tile.f32_epochs", float64(rep.F32Epochs), "count", 0)
	r.addLayer("tile.conversions", float64(rep.Conversions), "count", 0)
	r.addLayer("tile.conv_s", median(conv), "s", len(conv))

	r.addLayer("runtime.tasks", mean(tasks), "count", n)
	r.addLayer("runtime.steals", mean(steals), "count", n)
	r.addLayer("runtime.parks", mean(parks), "count", n)
	r.addLayer("runtime.idle_s", mean(idle), "s", n)
	r.addLayer("runtime.critical_path_s", mean(cp), "s", n)
	probeDispatch(r)
	// Scaling efficiency: one 1-worker solve of the same operator against
	// the untraced 2-worker median.
	*req++
	t0 := time.Now()
	_, one, err := solve(r, nil, *req, a, b, factorConfig(cfg.Precision == core.PrecisionAuto, 1))
	if err != nil {
		return err
	}
	r.rec.add("probe", "core.Run 1 worker", 0, *req, t0, time.Now())
	p50 := median(durations(untraced))
	r.addLayer("runtime.scaling_eff", one.Seconds()/(factorWorkers*p50), "ratio", 1)

	if _, err := probeGen(r, class, factorN, o.seed); err != nil {
		return err
	}
	addServiceLayers(r, nil)
	probeKernels(r, factorNB, rep.IB)
	r.addLayer("bench.trace_overhead_pct", 100*(median(durations(traced))/p50-1), "%", n)

	qr := k.busy(qrFamilies...)
	total := 0.0
	for _, v := range k {
		total += v.busy
	}
	if cfg.Precision == core.PrecisionAuto {
		r.confirm(qr == 0 && rep.F32Epochs > 0, "no QR family runs (%.3g s busy) and tile.f32_epochs %d > 0", qr, rep.F32Epochs)
	} else {
		r.confirm(qr > total/2 && rep.Conversions == 0, "lapack QR families hold %.1f%% of busy time and tile.conversions is %d", 100*qr/total, rep.Conversions)
	}
	return nil
}

// probeReplay times the replay of one fresh right-hand side on factors the
// workload produced — Result.SolveBatchRefined, the service's cached-solve
// path, which equals SolveBatch on float64 factors — checks the answer
// against a, and reports and returns the median milliseconds.
func probeReplay(r *report, res *core.Result, a *mat.Matrix, n int, seed int64) (float64, error) {
	b := matgen.RandomVector(n, rand.New(rand.NewSource(seed+1)))
	var ms []float64
	var x []float64
	for rep := 0; rep < 2*probeReps+1; rep++ {
		t0 := time.Now()
		xs, _, err := res.SolveBatchRefined([][]float64{b})
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		r.rec.add("core", "Result.SolveBatchRefined", 0, 0, t0, t1)
		ms = append(ms, t1.Sub(t0).Seconds()*1e3)
		x = xs[0]
	}
	r.tally.solution(a, b, x, false)
	v := median(ms)
	r.addLayer("core.replay_ms", v, "ms", len(ms))
	return v, nil
}
