package core

import (
	"fmt"
	"strings"
	"time"

	"luqr/internal/flops"
	"luqr/internal/runtime"
)

// Report summarizes one factorization+solve run.
type Report struct {
	Alg Algorithm `json:"alg"`
	N   int       `json:"n"`
	NB  int       `json:"nb"`
	NT  int       `json:"nt"`
	// IB is the panel kernels' inner block size the run actually used
	// (resolved from Config.IB, or the process default when unset).
	IB    int `json:"ib"`
	GridP int `json:"grid_p"`
	GridQ int `json:"grid_q"`

	// Decisions[k] is true when step k was an LU step (for LUQR; for the
	// pure algorithms it reflects the algorithm's fixed nature).
	Decisions []bool `json:"decisions,omitempty"`
	LUSteps   int    `json:"lu_steps"`
	QRSteps   int    `json:"qr_steps"`

	// Breakdown reports an exactly zero pivot during an LU elimination (LU
	// NoPiv on the Fiedler matrix, §V-C).
	Breakdown bool `json:"breakdown,omitempty"`

	// Precision is the configured kernel-precision mode of the run.
	Precision Precision `json:"precision"`
	// StepF32[k] is true when step k's kernels ran (and were accepted) in
	// float32; F32Steps counts them. Individual tasks demoted to float64
	// after an excursion are counted in Demotions without clearing the
	// step's flag.
	StepF32   []bool `json:"step_f32,omitempty"`
	F32Steps  int    `json:"f32_steps,omitempty"`
	Demotions int    `json:"demotions,omitempty"`
	// F32Epochs counts tile promotions into float32 residency (each is one
	// tile's entry into a run of consecutive float32 steps); Conversions
	// counts the actual conversion passes executed (roundings at promotion
	// plus widenings at demotion), and ConvTime their total wall time. All
	// zero for f64-effective runs.
	F32Epochs   int           `json:"f32_epochs,omitempty"`
	Conversions int           `json:"conversions,omitempty"`
	ConvTime    time.Duration `json:"conv_time_ns,omitempty"`
	// Margins[k] is the criterion's decision margin at step k — the ratio of
	// the decision quantity to its α-scaled threshold (≤ 1 means LU; NaN when
	// no margin was computed, e.g. static schedules or the Random criterion).
	// MarginMin/MarginMax summarize the finite entries (NaN when none).
	Margins   []float64 `json:"-"`
	MarginMin float64   `json:"-"`
	MarginMax float64   `json:"-"`
	// RefineIters is the number of iterative-refinement rounds the solve
	// path performed on this run's solution (0 for pure-f64 runs).
	RefineIters int `json:"refine_iters,omitempty"`

	// WallTime is the measured multicore execution time of this process.
	WallTime time.Duration `json:"wall_ns"`

	// HPL3 is the backward-error metric of §V-A; Growth the max-entry
	// growth factor max|final| / max|A|.
	HPL3   float64 `json:"hpl3"`
	Growth float64 `json:"growth"`
	// PeakGrowth is max over steps k of max|A^(k)| / max|A|, sampled when
	// Config.TrackGrowth is set (0 otherwise) — the growth factor the §III
	// criteria bound.
	PeakGrowth float64 `json:"peak_growth,omitempty"`

	// Trace is the recorded task graph (nil unless Config.Trace).
	Trace []*runtime.TraceTask `json:"-"`

	// Sched aggregates the scheduler's dispatch counters for this run
	// (lane hits, local deque hits, steals, remote releases, parks);
	// always populated, tracing or not.
	Sched runtime.SchedCounters `json:"-"`
}

// FracLU returns the fraction of LU steps (the f_LU of Table II).
func (r *Report) FracLU() float64 {
	if len(r.Decisions) == 0 {
		return 0
	}
	return float64(r.LUSteps) / float64(len(r.Decisions))
}

// FakeGFlops returns the paper's "fake" GFLOP/s for a given execution time:
// 2/3·N³ operations regardless of the steps actually taken.
func (r *Report) FakeGFlops(seconds float64) float64 {
	return flops.GFlops(flops.LUTotal(r.N), seconds)
}

// TrueGFlops returns the paper's "true" GFLOP/s: the operation count
// adjusted for the measured fraction of LU steps.
func (r *Report) TrueGFlops(seconds float64) float64 {
	return flops.GFlops(flops.TrueTotal(r.N, r.FracLU()), seconds)
}

// String renders a compact single-run summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s N=%d nb=%d grid=%dx%d: %d LU / %d QR steps (%.1f%% LU), HPL3=%.3g, growth=%.3g, wall=%v",
		r.Alg, r.N, r.NB, r.GridP, r.GridQ, r.LUSteps, r.QRSteps, 100*r.FracLU(), r.HPL3, r.Growth, r.WallTime)
	if r.Precision != PrecisionF64 {
		fmt.Fprintf(&b, ", prec=%s (%d f32 steps, %d demotions, %d refine iters)",
			r.Precision, r.F32Steps, r.Demotions, r.RefineIters)
		if r.F32Epochs > 0 {
			fmt.Fprintf(&b, " [%d f32 epochs, %d conversions in %v]",
				r.F32Epochs, r.Conversions, r.ConvTime)
		}
	}
	if r.Breakdown {
		b.WriteString(" [BREAKDOWN: zero pivot]")
	}
	return b.String()
}
