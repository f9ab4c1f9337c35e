// Package tune is the service's adaptive-config subsystem. It started as the
// (nb, ib, workers) autotuner — a first-use probe times a few candidate
// operating points for a matrix class on this machine, and the winner is
// persisted in a versioned JSON tuning table so later runs — and luqr-serve
// restarts — skip the probe entirely. The same table now also learns the
// hybrid criterion's robustness threshold α online, per matrix class: every
// finished job's decision ratio, growth, and backward error feed Observe,
// and jobs submitted with α unset resolve the learned value through Alpha
// (see alpha.go).
//
// Probes are single-flight per class and run without holding the tuner
// lock, so Stats (every /metrics scrape), Best, Alpha, Observe, and Tune
// calls for other classes never stall behind a seconds-long candidate
// sweep; concurrent misses of the same class coalesce onto one probe.
//
// The table mirrors the factor store's durability posture (internal/service):
// writes are temp-file + sync + rename in the destination directory, loads
// re-verify a version header and a content checksum, and any damaged or
// version-skewed file is quarantined (renamed aside) and treated as empty —
// the tuner re-probes; it never applies a corrupted operating point. Entries
// are keyed by machine fingerprint (arch, GOMAXPROCS, SIMD availability), so
// a table carried to different hardware re-probes instead of mis-tuning.
package tune

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"luqr/internal/blas"
	"luqr/internal/lapack"
)

// Point is one operating point of the solver: tile order NB, panel-kernel
// inner block size IB, and runtime worker-pool size.
type Point struct {
	NB      int `json:"nb"`
	IB      int `json:"ib"`
	Workers int `json:"workers"`
}

func (p Point) String() string {
	return fmt.Sprintf("nb=%d ib=%d workers=%d", p.NB, p.IB, p.Workers)
}

// Entry is one class's tuned state: the operating point that won the probe
// with its provenance, plus the α states learned online for the class. An
// entry created by Observe before any probe has NB == 0 — it carries α only
// and does not satisfy a Tune lookup.
type Entry struct {
	Point
	GFlops   float64 `json:"gflops"`
	ProbedAt string  `json:"probed_at,omitempty"` // RFC 3339, from the tuner's clock
	// Alphas holds the learned robustness thresholds, keyed by criterion
	// family ("max", "sum", "mumps"). Absent in tables written before
	// TableVersion 2; the forward migration leaves it empty.
	Alphas map[string]*AlphaState `json:"alphas,omitempty"`
}

// clone deep-copies the entry so callers can hold it outside the tuner lock
// while Observe keeps mutating the table's α states.
func (e Entry) clone() Entry {
	if e.Alphas == nil {
		return e
	}
	cp := make(map[string]*AlphaState, len(e.Alphas))
	for k, v := range e.Alphas {
		vv := *v
		cp[k] = &vv
	}
	e.Alphas = cp
	return e
}

// BenchFunc times one candidate point for an n×n problem of the given
// algorithm and reports its rate in GFLOP/s. Injected in tests; the default
// is CoreBench.
type BenchFunc func(p Point, n int, alg string) (gflops float64, err error)

// Options configures a Tuner. The zero value is usable: no persistence
// (every process probes once per class), default candidates, CoreBench, the
// real clock, and the real machine fingerprint.
type Options struct {
	// Path is the tuning-table file. Empty disables persistence; probes
	// still run once per process per class (cached in memory).
	Path string
	// Candidates overrides the probed points. Points whose NB does not
	// divide the problem order are skipped per problem.
	Candidates []Point
	// Bench overrides the probe measurement (default CoreBench).
	Bench BenchFunc
	// Now overrides the clock stamped into entries (default time.Now).
	Now func() time.Time
	// Logf receives probe/quarantine diagnostics (default: discarded).
	Logf func(format string, args ...any)
	// Machine overrides the machine fingerprint (tests only).
	Machine string
}

// Tuner resolves operating points: memory/table lookup first, probe on miss,
// persist the winner. Safe for concurrent use; concurrent misses of the same
// class run one probe.
type Tuner struct {
	path    string
	cands   []Point
	bench   BenchFunc
	now     func() time.Time
	logf    func(string, ...any)
	machine string

	mu     sync.Mutex
	tab    *table
	loaded bool
	stats  Stats
	// probing holds one channel per class with a candidate sweep in flight;
	// it closes when the sweep finishes. Probes run WITHOUT t.mu held —
	// only the registration, the install of the winner, and persistence
	// take the lock — so lookups and other classes never queue behind a
	// sweep.
	probing map[string]chan struct{}
}

// Stats is the tuner's observability snapshot, surfaced in /metrics.
type Stats struct {
	Path       string `json:"path,omitempty"`
	Machine    string `json:"machine"`
	Probes     int64  `json:"probes"`      // full candidate sweeps run
	Hits       int64  `json:"hits"`        // lookups served from the table
	LoadErrors int64  `json:"load_errors"` // quarantined table files
	Classes    int    `json:"classes"`     // probed classes for this machine
	// α-learning counters: classes with at least one learned α state,
	// observations folded in, and excursion backoffs taken.
	AlphaClasses  int   `json:"alpha_classes"`
	AlphaUpdates  int64 `json:"alpha_updates"`
	AlphaBackoffs int64 `json:"alpha_backoffs"`
}

// New builds a Tuner from opts.
func New(opts Options) *Tuner {
	t := &Tuner{
		path:    opts.Path,
		cands:   opts.Candidates,
		bench:   opts.Bench,
		now:     opts.Now,
		logf:    opts.Logf,
		machine: opts.Machine,
		probing: make(map[string]chan struct{}),
	}
	if t.bench == nil {
		t.bench = CoreBench
	}
	if t.now == nil {
		t.now = time.Now
	}
	if t.logf == nil {
		t.logf = func(string, ...any) {}
	}
	if t.machine == "" {
		t.machine = MachineID()
	}
	return t
}

// MachineID fingerprints the host for table keying: a table entry probed
// under one fingerprint is never applied under another. It names the
// selected kernel table (blas.KernelID), so an entry probed under one
// micro-kernel re-probes under another.
func MachineID() string { return machineID(blas.KernelID[float64]()) }

// machineID is MachineID with the kernel table named by kernel.
func machineID(kernel string) string {
	return fmt.Sprintf("%s/%s/procs=%d/kernel=%s",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), kernel)
}

// classKey buckets problems for table lookup. Tile-size choice depends on
// the problem order and algorithm; entries are per-(alg, n).
func classKey(n int, alg string) string {
	if alg == "" {
		alg = "luqr"
	}
	return fmt.Sprintf("%s/n%d", alg, n)
}

// DefaultCandidates is the probed sweep for an order-n problem: the
// production tile sizes crossed with the worker counts this host can
// exercise, at the kernels' default inner block size. Only points whose NB
// divides n survive filtering.
func DefaultCandidates(n int) []Point {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	var pts []Point
	for _, nb := range []int{128, 192, 256} {
		for _, w := range workers {
			pts = append(pts, Point{NB: nb, IB: lapack.PanelIB(), Workers: w})
		}
	}
	return pts
}

// candidates filters the sweep to points applicable to order n.
func (t *Tuner) candidates(n int) []Point {
	src := t.cands
	if src == nil {
		src = DefaultCandidates(n)
	}
	var out []Point
	for _, p := range src {
		if p.NB > 0 && p.NB <= n && n%p.NB == 0 {
			out = append(out, p)
		}
	}
	return out
}

// Best looks the class up in the table without probing (and without
// blocking on an in-flight probe). Alpha-only entries (NB == 0) do not
// count as tuned.
func (t *Tuner) Best(n int, alg string) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked()
	e, ok := t.tab.Machines[t.machine][classKey(n, alg)]
	if !ok || e.NB <= 0 {
		return Entry{}, false
	}
	return e.clone(), true
}

// Tune resolves the operating point for an order-n problem: a table hit
// returns immediately (probed == false); a miss sweeps the candidates,
// persists the winner, and returns it (probed == true). An error means no
// candidate applies or every probe failed — the caller keeps its defaults.
//
// Probes are single-flight per class: the first miss runs the sweep with
// t.mu released, and concurrent misses of the same class wait for it and
// then read the installed winner (probed == false for the waiters).
func (t *Tuner) Tune(n int, alg string) (e Entry, probed bool, err error) {
	key := classKey(n, alg)
	t.mu.Lock()
	for {
		t.loadLocked()
		if e, ok := t.tab.Machines[t.machine][key]; ok && e.NB > 0 {
			t.stats.Hits++
			ec := e.clone()
			t.mu.Unlock()
			return ec, false, nil
		}
		ch, inflight := t.probing[key]
		if !inflight {
			break
		}
		// Another goroutine is sweeping this class: wait off-lock, then
		// re-check — normally a hit; a retry as prober if its sweep failed.
		t.mu.Unlock()
		<-ch
		t.mu.Lock()
	}
	ch := make(chan struct{})
	t.probing[key] = ch
	t.stats.Probes++
	t.mu.Unlock()

	e, err = t.probe(n, alg) // seconds of real factorizations, off-lock

	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.probing, key)
	close(ch)
	if err != nil {
		return Entry{}, false, err
	}
	m := t.tab.Machines[t.machine]
	if m == nil {
		m = make(map[string]Entry)
		t.tab.Machines[t.machine] = m
	}
	// Keep any α states learned for the class while (or before) the sweep
	// ran — the probe decides the operating point, not the threshold.
	if prev, ok := m[key]; ok && prev.Alphas != nil {
		e.Alphas = prev.Alphas
	}
	m[key] = e
	t.persistLocked()
	return e.clone(), true, nil
}

// probe sweeps the applicable candidates and returns the fastest. Runs
// without t.mu held; everything it touches is immutable after New.
func (t *Tuner) probe(n int, alg string) (Entry, error) {
	cands := t.candidates(n)
	if len(cands) == 0 {
		return Entry{}, fmt.Errorf("tune: no candidate tile size divides n=%d", n)
	}
	best := Entry{GFlops: -1}
	for _, p := range cands {
		gf, err := t.bench(p, n, alg)
		if err != nil {
			t.logf("tune: probe %v failed: %v", p, err)
			continue
		}
		t.logf("tune: probe %s/n%d %v: %.2f GF/s", alg, n, p, gf)
		if gf > best.GFlops {
			best = Entry{Point: p, GFlops: gf}
		}
	}
	if best.GFlops < 0 {
		return Entry{}, fmt.Errorf("tune: every probe for n=%d failed", n)
	}
	best.ProbedAt = t.now().UTC().Format(time.RFC3339)
	return best, nil
}

// Stats snapshots the tuner's counters. It loads the persisted table on
// first use, so a fresh process with a populated table reports its classes
// before the first lookup; it never blocks on an in-flight probe.
func (t *Tuner) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked()
	s := t.stats
	s.Path = t.path
	s.Machine = t.machine
	for _, e := range t.tab.Machines[t.machine] {
		if e.NB > 0 {
			s.Classes++
		}
		if len(e.Alphas) > 0 {
			s.AlphaClasses++
		}
	}
	return s
}

// Classes lists the tuned classes for this machine, for reporting. Entries
// are deep copies — safe to hold while the learner keeps updating.
func (t *Tuner) Classes() map[string]Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked()
	out := make(map[string]Entry, len(t.tab.Machines[t.machine]))
	for k, v := range t.tab.Machines[t.machine] {
		out[k] = v.clone()
	}
	return out
}

// persistLocked writes the table through saveTable, logging (not failing)
// on error. Caller holds t.mu; the write is milliseconds, not the seconds a
// probe costs, so holding the lock here is fine.
func (t *Tuner) persistLocked() {
	if t.path == "" {
		return
	}
	if err := saveTable(t.path, t.tab); err != nil {
		t.logf("tune: persisting table: %v", err)
	}
}

// loadLocked lazily reads the persisted table. Caller holds t.mu.
func (t *Tuner) loadLocked() {
	if t.loaded {
		return
	}
	t.loaded = true
	if t.path == "" {
		t.tab = newTable()
		return
	}
	tab, quarantined, err := loadTable(t.path)
	if err != nil {
		t.logf("tune: loading table %s: %v", t.path, err)
	}
	if quarantined {
		t.stats.LoadErrors++
	}
	t.tab = tab
}
