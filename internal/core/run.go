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
func Run(a *mat.Matrix, b []float64, cfg Config) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("core: rhs length %d for N=%d", len(b), a.Rows)
	}
	if cfg.NB <= 0 {
		cfg.NB = 40
		if a.Rows < cfg.NB {
			cfg.NB = a.Rows
		}
	}
	if nb := cfg.NB; a.Rows%nb != 0 {
		padded := (a.Rows/nb + 1) * nb
		ap := mat.Identity(padded)
		ap.View(0, 0, a.Rows, a.Cols).CopyFrom(a)
		bp := make([]float64, padded)
		copy(bp, b)
		res, err := Run(ap, bp, cfg)
		if err != nil {
			return nil, err
		}
		res.X = res.X[:a.Rows]
		res.Report.N = a.Rows
		res.Report.HPL3 = mat.HPL3(a, res.X, b)
		return res, nil
	}
	c, err := cfg.withDefaults(a.Rows)
	if err != nil {
		return nil, err
	}

	ta := tile.FromDense(a, c.NB)
	rhs := tile.VectorFromSlice(b, c.NB)
	maxA0 := a.NormMax()

	f := newFact(c, ta, rhs)
	f.maxA0 = maxA0
	f.f32Bound = 1e8 * math.Max(1, maxA0)
	if c.Precision != PrecisionF64 {
		// The refinement residuals need the original matrix; factors
		// overwrite the tiles, so keep a clone for the run's lifetime.
		f.a0 = a.Clone()
		// Float32 steps run on resident tile images, converting only at
		// epoch boundaries instead of once per task. f64-effective runs
		// never construct the store, so their path is byte-for-byte the
		// plain one.
		f.res = tile.NewResidency(ta, rhs)
	}
	start := time.Now()
	switch c.Alg {
	case LUQR:
		if c.Variant == VarA1 {
			f.scheduleHybridStep(0)
		} else {
			f.scheduleVariantStep(0)
		}
	case LUNoPiv:
		f.scheduleLU(ScopeTile, false)
	case LUPP:
		f.scheduleLU(ScopeDomain, true)
	case LUIncPiv:
		f.scheduleIncPiv()
	case HQR:
		f.scheduleHQR()
	case CALU:
		f.scheduleCALU()
	case HLU:
		f.scheduleHLU()
	default:
		f.e.Close()
		return nil, fmt.Errorf("core: unknown algorithm %v", c.Alg)
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
	f.report.WallTime = time.Since(start)
	if c.Trace {
		f.report.Trace = f.e.Trace()
	}
	f.report.Sched = f.e.SchedCounters()
	f.e.Close()

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

	// Growth factor: max|final tiles| / max|A|.
	maxF := 0.0
	for i := 0; i < ta.MT; i++ {
		for j := 0; j < ta.NT; j++ {
			if v := ta.Tile(i, j).NormMax(); v > maxF {
				maxF = v
			}
		}
	}
	if maxA0 > 0 {
		f.report.Growth = maxF / maxA0
		if f.peakAbs > 0 {
			f.report.PeakGrowth = f.peakAbs / maxA0
		}
	}

	x := backSubstitute(ta, rhs, f.diagSolvers)
	// A mixed-precision factorization delivers a float32-accurate solution;
	// iterative refinement through the stored factors (float64 residuals,
	// O(N²) per round) brings it back to float64 backward error before the
	// run's HPL3 is judged.
	if f.report.F32Steps > 0 && !f.breakdown {
		f.report.RefineIters = f.refineVecs([][]float64{b}, [][]float64{x})
	}
	f.report.HPL3 = mat.HPL3(a, x, b)
	return &Result{X: x, Factored: ta, Report: f.report, f: f}, nil
}
