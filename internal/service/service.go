// Package service turns the one-shot solver library into a long-running
// solver-as-a-service process: the job manager, factorization cache, and
// HTTP surface behind cmd/luqr-serve.
//
// The layer contract, top to bottom:
//
//   - Manager owns a bounded submission queue and a fixed pool of job
//     workers. Submit never blocks: a full queue is an immediate
//     ErrQueueFull (the HTTP layer maps it to 429 backpressure), and a
//     draining manager refuses new work with ErrDraining (503). Each
//     accepted job moves queued → running → done/failed; a queued job can
//     be canceled (its context is canceled and it never runs), and
//     Drain stops intake, finishes every queued and running job, and
//     returns — or cancels the root context when its deadline passes, at
//     which point still-queued jobs fail fast with "canceled".
//
//   - The factorization cache (cache.go) is keyed by a digest of the
//     operator and the numerically relevant config, so a repeated POST
//     /v1/solve against the same operator skips the O(N³) factorization
//     and pays only the O(N²) replay + back-substitution of
//     core.Result.SolveBatch. The digest comes from the request's matrix
//     spec; the operator itself is built only by the job worker that
//     factors it after a cache and store miss, so hits, waits on an
//     in-flight entry, warm loads and rejected submissions never generate
//     or copy N² floats. Right-hand sides that queue up against the
//     same factorization while a solve pass is in flight are batched into
//     one block back-substitution. Factorizations are never duplicated:
//     concurrent consumers of one key share a single in-flight entry.
//
//   - Server (server.go) is the ops surface: job submission and status,
//     synchronous cached solves, /healthz, /metrics (queue depth, cache
//     hit rate, jobs by state, accumulated per-kernel totals from
//     runtime.Stats), request-size limits (413) and queue backpressure
//     (429). It holds no state of its own beyond the Manager, so it is
//     safe to serve from any number of goroutines.
//
// Everything here runs on the existing stack — core.Run on the
// work-stealing runtime — and adds no new numerical code.
package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"luqr/internal/core"
	"luqr/internal/runtime"
	"luqr/internal/tune"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull: the bounded submission queue is full (HTTP 429).
	ErrQueueFull = errors.New("service: submission queue full")
	// ErrDraining: the manager is shutting down and refuses new work (503).
	ErrDraining = errors.New("service: draining, not accepting work")
)

// Options configures a Manager.
type Options struct {
	// QueueSize bounds the submission queue; Submit returns ErrQueueFull
	// beyond it. Default 64.
	QueueSize int
	// Concurrency is the number of factorization jobs run in parallel.
	// Default 2.
	Concurrency int
	// CacheEntries caps the factorization cache (LRU beyond it). Default 16.
	CacheEntries int
	// Workers is the per-factorization runtime worker-pool size
	// (0 = GOMAXPROCS, the core default).
	Workers int
	// MaxN rejects matrices larger than this order at parse time.
	// Default 4096.
	MaxN int
	// NoTrace disables per-job tracing. By default jobs run with tracing on
	// and the measured per-kernel totals accumulate into /metrics.
	NoTrace bool
	// StoreDir enables the disk-backed factor store: completed
	// factorizations spill to <StoreDir>/<digest>.fact and warm-load on a
	// cache miss after a restart. Empty disables persistence.
	StoreDir string
	// StoreMaxBytes caps the factor store's total on-disk size; the coldest
	// files are evicted beyond it. Default 1 GiB. Only meaningful with
	// StoreDir.
	StoreMaxBytes int64
	// Tuner, when set, resolves the tile size / inner block / worker count
	// for requests that leave nb unset: first use of a matrix class probes a
	// few operating points and persists the winner (see internal/tune), so
	// later requests and restarts skip the probe. Nil disables autotuning.
	Tuner *tune.Tuner
	// LearnAlpha enables online α learning (requires Tuner): LUQR jobs with
	// alpha unset resolve the class's learned threshold, and every finished
	// learnable job's decision ratio / growth / backward error feed the
	// learner. Learner-feeding jobs run with growth tracking on (an extra
	// O(N²) read per step).
	LearnAlpha bool
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 16
	}
	if o.MaxN <= 0 {
		o.MaxN = 4096
	}
	if o.StoreMaxBytes <= 0 {
		o.StoreMaxBytes = 1 << 30
	}
	return o
}

// Manager owns the job queue, the worker pool, and the factorization cache.
type Manager struct {
	opts  Options
	queue chan *Job
	cache *cache
	met   Metrics
	start time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished-job IDs, oldest first (history eviction)
	nextID   int64

	root     context.Context
	cancel   context.CancelFunc
	drainCh  chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
}

// NewManager starts a manager with opts.Concurrency job workers. With
// Options.StoreDir set, it also opens the disk-backed factor store (creating
// the directory, adopting existing spills, cleaning up crashed writes) —
// failure there fails construction.
func NewManager(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	m := &Manager{
		opts:    opts,
		queue:   make(chan *Job, opts.QueueSize),
		jobs:    make(map[string]*Job),
		drainCh: make(chan struct{}),
		start:   time.Now(),
	}
	m.cache = newCache(opts.CacheEntries, &m.met)
	if opts.StoreDir != "" {
		st, err := newStore(opts.StoreDir, opts.StoreMaxBytes, &m.met)
		if err != nil {
			return nil, err
		}
		m.cache.store = st
	}
	m.root, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(opts.Concurrency)
	for i := 0; i < opts.Concurrency; i++ {
		go m.worker()
	}
	return m, nil
}

// Options returns the effective (defaulted) options.
func (m *Manager) Options() Options { return m.opts }

// Uptime reports how long the manager has been running.
func (m *Manager) Uptime() time.Duration { return time.Since(m.start) }

// Submit enqueues a parsed factorization job. It never blocks: a full queue
// returns ErrQueueFull, a draining manager ErrDraining.
func (m *Manager) Submit(p *parsedRequest) (*Job, error) {
	if m.draining.Load() {
		m.met.Rejected.Add(1)
		return nil, ErrDraining
	}
	m.mu.Lock()
	m.nextID++
	j := newJob(m.nextID, p, m.root)
	m.mu.Unlock()
	select {
	case m.queue <- j:
	default:
		m.met.Rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.mu.Unlock()
	m.met.Submitted.Add(1)
	return j, nil
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a queued job. It reports false when the job has already
// started (a running factorization cannot be aborted mid-kernel) or
// finished.
func (m *Manager) Cancel(id string) (*Job, bool, error) {
	j, ok := m.Job(id)
	if !ok {
		return nil, false, errors.New("service: no such job")
	}
	canceled := j.tryCancel()
	if canceled {
		m.met.Canceled.Add(1)
		m.retire(j.ID)
	}
	return j, canceled, nil
}

// maxJobs bounds the finished-job history kept for GET /v1/jobs/{id}.
const maxJobs = 1024

// retire records a terminal job in the bounded history, forgetting the
// oldest terminal jobs beyond maxJobs.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	m.finished = append(m.finished, id)
	for len(m.finished) > maxJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	m.mu.Unlock()
}

// QueueDepth samples the number of jobs waiting in the submission queue.
func (m *Manager) QueueDepth() int { return len(m.queue) }

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case j := <-m.queue:
			m.runJob(j)
		case <-m.drainCh:
			// Drain started: finish whatever is still queued, then exit.
			for {
				select {
				case j := <-m.queue:
					m.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one factorization job: reuse the cached factorization for
// its digest when one exists (or is in flight), factor otherwise.
func (m *Manager) runJob(j *Job) {
	if !j.markRunning() {
		return // canceled while queued
	}
	if j.ctx.Err() != nil {
		m.finishJob(j, nil, errors.New("service: canceled: server shutting down"))
		return
	}
	e, created := m.cache.getOrCreate(j.req.key)
	if !created {
		// The factorization exists or is being computed by another worker;
		// share it. The creator always completes the entry, so this wait
		// terminates.
		<-e.ready
		if e.err != nil {
			m.finishJob(j, nil, e.err)
			return
		}
		m.met.CacheHits.Add(1)
		m.finishJob(j, e.res, nil)
		return
	}
	m.met.CacheMisses.Add(1)
	cfg := j.req.cfg
	if cfg.Workers == 0 {
		cfg.Workers = m.opts.Workers
	}
	cfg.Trace = !m.opts.NoTrace
	learning := m.opts.LearnAlpha && m.opts.Tuner != nil && j.req.alphaCrit != ""
	if learning {
		// The learner's excursion test wants the PEAK intermediate growth,
		// not just the final factor's — pay the tracking cost only for jobs
		// that actually feed it.
		cfg.TrackGrowth = true
	}
	// Only a miss in both the cache and the store builds the operator.
	res, err := core.Run(j.req.operator(), j.req.b, cfg)
	if err == nil && learning {
		// Observations happen only here, on actual factorizations — a cache
		// hit re-serves an old result and carries no new signal.
		r := res.Report
		m.opts.Tuner.Observe(r.N, r.Alg.String(), tune.Observation{
			Criterion:  j.req.alphaCrit,
			Alpha:      j.req.alpha,
			FracLU:     r.FracLU(),
			Growth:     r.Growth,
			PeakGrowth: r.PeakGrowth,
			HPL3:       r.HPL3,
			Breakdown:  r.Breakdown,
		})
	}
	if err == nil {
		if r := res.Report; r.Precision != core.PrecisionF64 {
			if r.F32Steps > 0 {
				m.met.F32Jobs.Add(1)
			}
			m.met.F32Steps.Add(int64(r.F32Steps))
			m.met.Demotions.Add(int64(r.Demotions))
			m.met.F32Epochs.Add(int64(r.F32Epochs))
			m.met.Conversions.Add(int64(r.Conversions))
			m.met.RefineIters.Add(int64(r.RefineIters))
		}
		if res.Report.Trace != nil {
			// Fold the measured per-kernel totals into /metrics, then drop
			// the trace: the cache retains the Result for replay solves, and
			// the raw trace is the only unbounded part of it.
			m.met.AddKernels(runtime.ComputeStats(res.Report.Trace).Snapshot())
			res.Report.Trace = nil
		}
		m.met.AddSched(res.Report.Sched)
		// Persist the fresh factorization (async; Drain flushes stragglers).
		m.cache.spill(j.req.key, res)
	}
	e.complete(res, err)
	if err != nil {
		// Remove the failed entry so a later submission may retry.
		m.cache.remove(j.req.key)
	}
	m.finishJob(j, res, err)
}

// finishJob moves a job to its terminal state and trims the job history.
func (m *Manager) finishJob(j *Job, res *core.Result, err error) {
	j.finish(res, err)
	if err != nil {
		m.met.Failed.Add(1)
	} else {
		m.met.Done.Add(1)
	}
	m.retire(j.ID)
}

// Solve answers one solve request against the factorization cache: a hit
// pays only the batched replay + back-substitution; a miss routes the
// factorization through the job queue (so concurrency limits and 429
// backpressure apply uniformly) and then solves. ctx bounds the wait for an
// in-flight factorization — typically the HTTP request context.
func (m *Manager) Solve(ctx context.Context, p *parsedRequest, rhs []float64) (x []float64, hit bool, batch int, jobID string, err error) {
	m.met.SolveRequests.Add(1)
	if e, ok := m.cache.lookup(p.key); ok {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, 0, "", ctx.Err()
		}
		if e.err == nil {
			m.met.CacheHits.Add(1)
			x, batch, err = e.solve(rhs, &m.met)
			return x, true, batch, "", err
		}
		// The failed entry has been removed from the cache by its creator;
		// fall through and re-factor.
	}
	j, err := m.Submit(p)
	if err != nil {
		return nil, false, 0, "", err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, false, 0, j.ID, ctx.Err()
	}
	if jerr := j.Err(); jerr != nil {
		return nil, false, 0, j.ID, jerr
	}
	e, ok := m.cache.lookup(p.key)
	if !ok {
		return nil, false, 0, j.ID, errors.New("service: factorization evicted before solve")
	}
	<-e.ready
	if e.err != nil {
		return nil, false, 0, j.ID, e.err
	}
	x, batch, err = e.solve(rhs, &m.met)
	return x, false, batch, j.ID, err
}

// Drain stops accepting work, runs every queued job to completion, and
// waits for the workers to finish. When ctx expires first, the root context
// is canceled — jobs not yet started fail fast with "canceled" — and
// Drain returns ctx's error; running kernels still finish in the
// background. Drain is idempotent; only the first call closes the intake.
func (m *Manager) Drain(ctx context.Context) error {
	if m.draining.CompareAndSwap(false, true) {
		close(m.drainCh)
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		// Flush in-flight factor spills before declaring the drain complete:
		// a restart should find everything the old process factored. Each
		// spill starts before its worker exits, so the WaitGroup ordering
		// holds.
		m.cache.waitSpills()
		close(done)
	}()
	select {
	case <-done:
		m.failLeftovers()
		return nil
	case <-ctx.Done():
		m.cancel()
		return ctx.Err()
	}
}

// failLeftovers fails any job that slipped into the queue after the workers
// exited (the Submit/Drain race window), so no waiter hangs.
func (m *Manager) failLeftovers() {
	for {
		select {
		case j := <-m.queue:
			if j.markRunning() {
				m.finishJob(j, nil, errors.New("service: canceled: server shutting down"))
			}
		default:
			return
		}
	}
}
