package core

import (
	"fmt"
	"math"
	"time"

	"luqr/internal/mat"
	"luqr/internal/tile"
)

// Result is the outcome of a Run: the solution, the factored tiled matrix
// (upper triangles hold R/U, lower parts hold eliminator data), and the run
// report.
type Result struct {
	X        []float64
	Factored *tile.Matrix
	Report   *Report

	// f retains the factorization state for Solve/Refine (new right-hand
	// sides via transformation replay, §II-D.1's second-pass alternative).
	f *fact
}

// Run factors A (augmented with the right-hand side b, §II-D.1) with the
// configured algorithm, solves for x, and evaluates the HPL3 backward error
// against the original system. A and b are not modified.
//
// N need not be a multiple of NB: as the paper notes (§II-D.2) the
// restriction is only for simplicity of presentation, and the clean-up here
// pads the system to the next tile boundary with an identity block —
// diag(A, I)·[x; 0] = [b; 0] — which leaves the solution, the backward
// error, and the algorithm's numerical path on the original rows unchanged.
//
// Only the factorization runs as the task graph. The O(N²) work around it
// (tiling A, the growth scan, the refinement residuals) is split by tile
// rows across the same engine's workers; every row keeps its serial
// summation order, so no result depends on the split or the worker count.
func Run(a *mat.Matrix, b []float64, cfg Config) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("core: rhs length %d for N=%d", len(b), n)
	}
	if cfg.NB <= 0 {
		cfg.NB = 40
		if n < cfg.NB {
			cfg.NB = n
		}
	}
	np := (n + cfg.NB - 1) / cfg.NB * cfg.NB // the padded order
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	bp := b
	if np > n {
		bp = make([]float64, np)
		copy(bp, b)
	}
	mt := np / c.NB
	ta := tile.New(mt, mt, c.NB)
	rhs := tile.VectorFromSlice(bp, c.NB)
	f := newFact(c, ta, rhs)

	// One read of A tiles it, keeps the refinement's copy and takes the norms.
	var a0 *mat.Matrix
	if c.Precision != PrecisionF64 {
		// Factors overwrite the tiles, and refinement needs the original.
		a0 = mat.New(np, np)
	}
	norms, maxes := make([]float64, mt), make([]float64, mt)
	f.e.Parallel(mt, func(bi int) {
		norms[bi], maxes[bi] = ta.LoadDense(bi, a, a0)
	})
	normA, maxA0 := foldMax(norms), foldMax(maxes)
	f.normA, f.report.N = normA, n
	// The licenses read the original entries: the identity pad's 1 would
	// let a padded operator far below float32's range pass.
	f.autoF32 = f32Licensed(maxA0)
	f.forceF32 = c.Precision == PrecisionF32 && maxA0 >= f32Floor
	if np > n {
		// The identity block adds entries of 1.
		maxA0 = math.Max(maxA0, 1)
	}
	f.f32Ceil = f32Ceiling(f32Headroom * math.Max(1, maxA0))
	if a0 != nil {
		f.a0 = a0
		// Float32 steps run on resident tile images, converting only at
		// epoch boundaries instead of once per task. f64-effective runs
		// never construct the store, so their path is byte-for-byte the
		// plain one.
		f.res = tile.NewResidency(ta, rhs)
	}
	start := time.Now()
	switch c.Alg {
	case LUQR:
		f.scheduleHybridStep(0)
	case LUNoPiv:
		f.scheduleLU(ScopeTile, false)
	case LUPP:
		f.scheduleLU(ScopeDomain, true)
	case HQR, LUIncPiv, HLU:
		f.scheduleTree()
	case CALU:
		f.scheduleCALU()
	}
	f.e.Wait()
	if f.res != nil {
		// End the run's last float32 epochs: widen every dirty tile back to
		// float64 before the clock stops, so the epoch-boundary conversion
		// cost is charged to the wall time it belongs to — and so growth,
		// solves and serialization below only ever see float64 tiles.
		f.res.Flush(nil)
		epochs, to32, to64 := f.res.Counters()
		f.report.F32Epochs = int(epochs)
		f.report.Conversions = int(to32 + to64)
		f.report.ConvTime = time.Duration(f.res.ConvNS())
	}
	// The wall time, trace and scheduler counters are the DAG's: take them
	// before the work below runs on the same workers.
	f.report.WallTime = time.Since(start)
	if c.Trace {
		f.report.Trace = f.e.Trace()
	}
	f.report.Sched = f.e.SchedCounters()

	for _, d := range f.report.Decisions {
		if d {
			f.report.LUSteps++
		} else {
			f.report.QRSteps++
		}
	}
	f.report.Breakdown = f.breakdown
	f.report.Demotions = f.demotions
	for k, st := range f.steps {
		f.report.StepF32[k] = st.f32
		if st.f32 {
			f.report.F32Steps++
		}
	}
	f.report.MarginMin, f.report.MarginMax = math.NaN(), math.NaN()
	for _, m := range f.report.Margins {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			continue
		}
		if math.IsNaN(f.report.MarginMin) || m < f.report.MarginMin {
			f.report.MarginMin = m
		}
		if math.IsNaN(f.report.MarginMax) || m > f.report.MarginMax {
			f.report.MarginMax = m
		}
	}

	// Back substitution (serial, the longest piece, so first) beside the
	// growth scan over the final tiles' tile rows.
	var x []float64
	rowMax := make([]float64, mt)
	f.e.Parallel(mt+1, func(i int) {
		if i == 0 {
			x = backSubstitute(ta, rhs, f.diagSolvers)
			return
		}
		for j := 0; j < mt; j++ {
			if v := ta.Tile(i-1, j).NormMax(); v > rowMax[i-1] {
				rowMax[i-1] = v
			}
		}
	})
	// Growth factor: max|final tiles| / max|A|.
	if maxA0 > 0 {
		f.report.Growth = foldMax(rowMax) / maxA0
		if f.peakAbs > 0 {
			f.report.PeakGrowth = f.peakAbs / maxA0
		}
	}

	// A mixed-precision factorization delivers a float32-accurate solution;
	// iterative refinement through the stored factors (float64 residuals,
	// O(N²) per round) brings it back to float64 backward error before the
	// run's HPL3 is judged. Refinement judges the original rows, as the
	// report does, so its last accepted iterate's HPL3 is the run's.
	var hpl3 []float64
	if f.report.F32Steps > 0 && !f.breakdown {
		f.report.RefineIters, hpl3 = f.refineVecs([][]float64{bp}, [][]float64{x})
	}
	x = x[:n]
	if hpl3 != nil {
		f.report.HPL3 = hpl3[0]
	} else {
		f.report.HPL3 = mat.HPL3Residual(f.residual(a, x, b), x, normA)
	}
	f.e.Close()
	f.e = nil // later solves run on the caller's goroutine
	return &Result{X: x, Factored: ta, Report: f.report, f: f}, nil
}

// foldMax returns the largest of xs (0 when empty), folded with `>` like
// the norms it combines.
func foldMax(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
