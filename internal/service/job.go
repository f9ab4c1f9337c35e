package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"luqr/internal/core"
	"luqr/internal/tune"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: queued → running → done/failed, or queued → canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Job is one factorization request moving through the Manager. A finished
// job keeps only what its status view reports: the request, with its
// operator source and right-hand side, and the core.Result are released at
// finish, so the bounded history never pins N² floats per job.
type Job struct {
	ID    string
	key   string
	tuned *tune.Entry
	req   *parsedRequest // nil once the job is terminal

	// ctx is canceled by Cancel or by the manager's shutdown; a job whose
	// context is canceled before it starts never runs.
	ctx    context.Context
	cancel context.CancelFunc

	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu        sync.Mutex
	state     State
	err       error
	report    *ReportView // frozen at finish from the run's core.Report
	submitted time.Time
	started   time.Time
	finishedT time.Time
}

func newJob(seq int64, p *parsedRequest, root context.Context) *Job {
	ctx, cancel := context.WithCancel(root)
	return &Job{
		ID:        fmt.Sprintf("j-%06d", seq),
		key:       p.key,
		tuned:     p.tuned,
		req:       p,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// markRunning transitions queued → running; false when the job was canceled
// while queued (it must not run).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// tryCancel cancels a still-queued job; false once it is running or done.
func (j *Job) tryCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCanceled
	j.req = nil
	j.finishedT = time.Now()
	j.err = errors.New("service: canceled")
	j.cancel()
	close(j.done)
	return true
}

// finish records the terminal state, freezes the report view, releases the
// request, and releases every waiter.
func (j *Job) finish(res *core.Result, err error) {
	j.mu.Lock()
	if j.state == StateCanceled { // already terminal (raced with cancel)
		j.mu.Unlock()
		return
	}
	if res != nil {
		j.report = newReportView(res.Report, j.req)
	}
	j.req = nil
	j.err = err
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.finishedT = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	close(j.done)
}

// Err returns the job's terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ReportView is the JSON shape of a finished job's run report: the per-step
// LU/QR choices the criterion made, the stability and growth metrics, and
// the measured wall time.
type ReportView struct {
	Alg       string `json:"alg"`
	N         int    `json:"n"`
	NB        int    `json:"nb"`
	IB        int    `json:"ib"`
	GridP     int    `json:"grid_p"`
	GridQ     int    `json:"grid_q"`
	Criterion string `json:"criterion,omitempty"`
	// Alpha is the effective robustness threshold the run used and
	// AlphaSource how it was resolved: "explicit", "learned", or "default".
	// Absent for non-LUQR runs.
	Alpha       float64  `json:"alpha,omitempty"`
	AlphaSource string   `json:"alpha_source,omitempty"`
	Decisions   []string `json:"decisions"`
	LUSteps     int      `json:"lu_steps"`
	QRSteps     int      `json:"qr_steps"`
	FracLU      float64  `json:"frac_lu"`
	HPL3        float64  `json:"hpl3"`
	Growth      float64  `json:"growth"`
	// PeakGrowth is the peak intermediate growth, present when the run
	// tracked it (learner-feeding jobs do).
	PeakGrowth float64 `json:"peak_growth,omitempty"`
	Breakdown  bool    `json:"breakdown,omitempty"`
	// Precision is the effective kernel precision ("auto" or "f32"; absent
	// for pure-f64 runs), with the mixed path's accounting: steps that
	// accepted float32 kernels, excursion demotions back to f64, the
	// float32 residency epochs the run's tiles entered, the conversion
	// passes those epochs cost (with their wall time), and the
	// iterative-refinement rounds the solve needed.
	Precision   string  `json:"precision,omitempty"`
	F32Steps    int     `json:"f32_steps,omitempty"`
	Demotions   int     `json:"demotions,omitempty"`
	F32Epochs   int     `json:"f32_epochs,omitempty"`
	Conversions int     `json:"conversions,omitempty"`
	ConvMS      float64 `json:"conv_ms,omitempty"`
	RefineIters int     `json:"refine_iters,omitempty"`
	// MarginMin/MarginMax summarize the criterion decision margins over the
	// run's steps (present when at least one step had a finite margin).
	// Pointers, because a range that starts at 0 (the Max criterion's last
	// step, with nothing below the diagonal) is a value to report.
	MarginMin *float64 `json:"margin_min,omitempty"`
	MarginMax *float64 `json:"margin_max,omitempty"`
	WallMS    float64  `json:"wall_ms"`
}

// JobView is the JSON shape of GET /v1/jobs/{id}. CacheKey is the full
// SHA-256 digest — it names the factorization in the cache and the disk
// store; CacheKeyShort is the documented 12-hex display form.
type JobView struct {
	ID            string `json:"id"`
	State         State  `json:"state"`
	Error         string `json:"error,omitempty"`
	CacheKey      string `json:"cache_key"`
	CacheKeyShort string `json:"cache_key_short"`
	SubmittedMS   int64  `json:"submitted_unix_ms"`
	StartedMS     int64  `json:"started_unix_ms,omitempty"`
	FinishedMS    int64  `json:"finished_unix_ms,omitempty"`
	// Tuned is the autotuner's operating point when it chose the tile size
	// for this job (absent when the request pinned nb or tuning is off).
	Tuned  *tune.Entry `json:"tuned,omitempty"`
	Report *ReportView `json:"report,omitempty"`
}

// View snapshots the job for the status endpoint.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.ID,
		State:         j.state,
		CacheKey:      j.key,
		CacheKeyShort: ShortDigest(j.key),
		SubmittedMS:   j.submitted.UnixMilli(),
		Tuned:         j.tuned,
		Report:        j.report,
	}
	if !j.started.IsZero() {
		v.StartedMS = j.started.UnixMilli()
	}
	if !j.finishedT.IsZero() {
		v.FinishedMS = j.finishedT.UnixMilli()
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// newReportView renders a run's report, with the request's criterion and α
// resolution, in its wire shape.
func newReportView(r *core.Report, req *parsedRequest) *ReportView {
	rv := &ReportView{
		Alg: r.Alg.String(), N: r.N, NB: r.NB, IB: r.IB,
		GridP: r.GridP, GridQ: r.GridQ,
		Criterion: req.criterion,
		Alpha:     req.alpha, AlphaSource: req.alphaSource,
		LUSteps: r.LUSteps, QRSteps: r.QRSteps, FracLU: r.FracLU(),
		HPL3: r.HPL3, Growth: r.Growth, PeakGrowth: r.PeakGrowth,
		Breakdown: r.Breakdown,
		WallMS:    float64(r.WallTime.Microseconds()) / 1000,
	}
	if r.Precision != core.PrecisionF64 {
		rv.Precision = r.Precision.String()
		rv.F32Steps = r.F32Steps
		rv.Demotions = r.Demotions
		rv.F32Epochs = r.F32Epochs
		rv.Conversions = r.Conversions
		rv.ConvMS = float64(r.ConvTime.Microseconds()) / 1000
		rv.RefineIters = r.RefineIters
	}
	if !math.IsNaN(r.MarginMin) {
		// NaN (no step had a finite margin) cannot be marshaled; the pair
		// is always set together.
		lo, hi := r.MarginMin, r.MarginMax
		rv.MarginMin, rv.MarginMax = &lo, &hi
	}
	rv.Decisions = make([]string, len(r.Decisions))
	for k, lu := range r.Decisions {
		if lu {
			rv.Decisions[k] = "lu"
		} else {
			rv.Decisions[k] = "qr"
		}
	}
	return rv
}
