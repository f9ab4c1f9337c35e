package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"luqr/internal/core"
)

// storeOpts returns Manager options wired to a per-test store directory.
func storeOpts(t *testing.T) Options {
	t.Helper()
	return Options{QueueSize: 8, Concurrency: 2, CacheEntries: 4, StoreDir: t.TempDir()}
}

func mustParse(t *testing.T, spec MatrixSpec, cs ConfigSpec) *parsedRequest {
	t.Helper()
	p, err := parse(spec, cs, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// factorAndDrain factors one operator through m and drains it, flushing the
// spill to disk. Returns the solution of a probe solve for later
// comparison.
func factorAndDrain(t *testing.T, m *Manager, p *parsedRequest, rhs []float64) []float64 {
	t.Helper()
	x, _, _, _, err := m.Solve(context.Background(), p, rhs)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return x
}

// TestStoreRestartWarmHit is the restart round trip of the factor store: a
// factorization spilled by one Manager warm-loads in a fresh Manager over
// the same directory — no re-factoring (zero cache misses), the warm-hit
// metric increments, and the replayed solution is bit-identical.
func TestStoreRestartWarmHit(t *testing.T) {
	opts := storeOpts(t)
	p := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 9}, ConfigSpec{NB: 40})
	rhs := make([]float64, 160)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}

	m1 := mustManager(t, opts)
	x1 := factorAndDrain(t, m1, p, rhs)
	if got := m1.met.StoreSpills.Load(); got != 1 {
		t.Fatalf("spills = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(opts.StoreDir, p.key+factExt)); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// "Restart": a fresh Manager over the same directory.
	m2 := mustManager(t, opts)
	defer m2.Drain(context.Background())
	x2, _, _, _, err := m2.Solve(context.Background(), p, rhs)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if len(x2) != len(x1) {
		t.Fatalf("warm solution has length %d, want %d", len(x2), len(x1))
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("warm replay diverges at x[%d]: %g vs %g", i, x1[i], x2[i])
		}
	}
	if got := m2.met.StoreWarmHits.Load(); got != 1 {
		t.Fatalf("warm hits = %d, want 1", got)
	}
	if got := m2.met.CacheMisses.Load(); got != 0 {
		t.Fatalf("cache misses = %d, want 0 (warm load must skip factorization)", got)
	}
}

// TestStoreRestartOverHTTP repeats the restart round trip through the full
// HTTP surface, the way the smoke script exercises it: solve, shut down,
// restart against the same -store-dir, solve again, and compare wire-level
// solutions and /metrics.
func TestStoreRestartOverHTTP(t *testing.T) {
	opts := storeOpts(t)
	body := map[string]any{
		"matrix": map[string]any{"n": 160, "gen": "random", "seed": 4},
		"config": map[string]any{"alg": "luqr", "nb": 40},
	}
	solveOnce := func(m *Manager) []float64 {
		ts := httptest.NewServer(NewServer(m, 0))
		defer ts.Close()
		st, out := postJSON(t, ts.Client(), ts.URL+"/v1/solve", body)
		if st != http.StatusOK {
			t.Fatalf("solve: got %d: %s", st, out)
		}
		var sr solveResponse
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.X
	}

	m1 := mustManager(t, opts)
	x1 := solveOnce(m1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	m2 := mustManager(t, opts)
	defer m2.Drain(context.Background())
	x2 := solveOnce(m2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("restarted solve diverges at x[%d]: %g vs %g", i, x1[i], x2[i])
		}
	}
	ms := m2.MetricsSnapshot()
	if !ms.Store.Enabled || ms.Store.WarmHits != 1 || ms.Cache.Misses != 0 {
		t.Fatalf("store metrics after restart = %+v, want enabled, 1 warm hit, 0 misses", ms.Store)
	}
	if ms.Store.Files != 1 || ms.Store.Bytes <= 0 {
		t.Fatalf("store occupancy = %d files / %d bytes, want 1 file with content", ms.Store.Files, ms.Store.Bytes)
	}
}

// TestStoreCorruptFileQuarantined: a damaged spill must be logged, deleted,
// and degraded to a re-factoring miss — the request still succeeds and the
// bad file never survives.
func TestStoreCorruptFileQuarantined(t *testing.T) {
	opts := storeOpts(t)
	p := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 5}, ConfigSpec{NB: 40})
	rhs := make([]float64, 160)
	for i := range rhs {
		rhs[i] = 1
	}

	m1 := mustManager(t, opts)
	x1 := factorAndDrain(t, m1, p, rhs)

	// Corrupt the payload (past the header) so the checksum catches it.
	path := filepath.Join(opts.StoreDir, p.key+factExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustManager(t, opts)
	defer m2.Drain(context.Background())
	x2, _, _, _, err := m2.Solve(context.Background(), p, rhs)
	if err != nil {
		t.Fatalf("solve against corrupted store: %v", err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("re-factored solution diverges at x[%d]", i)
		}
	}
	if got := m2.met.StoreLoadErrors.Load(); got != 1 {
		t.Fatalf("load errors = %d, want 1", got)
	}
	if got := m2.met.StoreWarmHits.Load(); got != 0 {
		t.Fatalf("warm hits = %d, want 0 (corrupted file must not hit)", got)
	}
	if got := m2.met.CacheMisses.Load(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (graceful degradation re-factors)", got)
	}
	// The quarantined file is gone; the re-factoring spilled a fresh one.
	if err := m2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fresh, err := os.ReadFile(path); err != nil {
		t.Fatalf("re-spill missing: %v", err)
	} else if _, err := core.DecodeFactorization(fresh); err != nil {
		t.Fatalf("re-spilled file does not decode: %v", err)
	}
}

// TestStoreByteCapEvicts: spilling past StoreMaxBytes evicts the coldest
// file, and a fresh store scan (restart) enforces the cap too.
func TestStoreByteCapEvicts(t *testing.T) {
	dir := t.TempDir()
	// One n=160 nb=40 factorization serializes to a few hundred KiB; a
	// 600 KiB cap holds one spill but not two.
	opts := Options{QueueSize: 8, Concurrency: 1, CacheEntries: 4, StoreDir: dir, StoreMaxBytes: 600 << 10}
	m := mustManager(t, opts)

	p1 := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 1}, ConfigSpec{NB: 40})
	p2 := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 2}, ConfigSpec{NB: 40})
	rhs := make([]float64, 160)
	for i := range rhs {
		rhs[i] = 1
	}
	if _, _, _, _, err := m.Solve(context.Background(), p1, rhs); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := m.Solve(context.Background(), p2, rhs); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := m.met.StoreEvictions.Load(); got == 0 {
		t.Fatal("no store eviction despite exceeding the byte cap")
	}
	files, bytes := m.cache.store.stats()
	if files != 1 || bytes > opts.StoreMaxBytes {
		t.Fatalf("store holds %d files / %d bytes, want 1 file within the %d cap", files, bytes, opts.StoreMaxBytes)
	}
	// p2's spill is the survivor (p1 was the coldest).
	if _, err := os.Stat(filepath.Join(dir, p2.key+factExt)); err != nil {
		t.Fatalf("newest spill evicted: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, p1.key+factExt)); !os.IsNotExist(err) {
		t.Fatalf("coldest spill not evicted (stat err=%v)", err)
	}
}

// TestStoreStartupCleansAndAdopts: newStore removes leftover temp files
// from a crashed writer, adopts existing spills, and ignores foreign files.
func TestStoreStartupCleansAndAdopts(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".spill-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a spill"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "abc123"+factExt), []byte("adopted"), 0o644); err != nil {
		t.Fatal(err)
	}
	var met Metrics
	s, err := newStore(dir, 1<<20, &met)
	if err != nil {
		t.Fatal(err)
	}
	files, bytes := s.stats()
	if files != 1 || bytes != int64(len("adopted")) {
		t.Fatalf("adopted %d files / %d bytes, want 1 / %d", files, bytes, len("adopted"))
	}
	if _, err := os.Stat(filepath.Join(dir, ".spill-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived the startup scan")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file was removed by the startup scan")
	}
}

// TestStoreFilenamePrefixCollision: two factorizations whose digests share
// a long common prefix (the old 16-char truncation would have merged them)
// must store and load independently. Regression for the digest truncation
// fix.
func TestStoreFilenamePrefixCollision(t *testing.T) {
	dir := t.TempDir()
	var met Metrics
	s, err := newStore(dir, 1<<30, &met)
	if err != nil {
		t.Fatal(err)
	}
	p1 := mustParse(t, MatrixSpec{N: 80, Gen: "random", Seed: 1}, ConfigSpec{NB: 40})
	p2 := mustParse(t, MatrixSpec{N: 80, Gen: "random", Seed: 2}, ConfigSpec{NB: 40})
	r1, err := core.Run(p1.operator(), p1.b, p1.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(p2.operator(), p2.b, p2.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force the collision the truncation bug allowed: identical 16-char
	// prefixes, distinct full digests.
	const prefix = "0011223344556677"
	k1 := prefix + strings.Repeat("a", 48)
	k2 := prefix + strings.Repeat("b", 48)
	s.spill(k1, r1)
	s.spill(k2, r2)
	if files, _ := s.stats(); files != 2 {
		t.Fatalf("store holds %d files, want 2 (prefix-sharing digests must not merge)", files)
	}
	g1, ok := s.loadResult(k1)
	if !ok {
		t.Fatal("k1 load missed")
	}
	g2, ok := s.loadResult(k2)
	if !ok {
		t.Fatal("k2 load missed")
	}
	same := true
	for i := range g1.X {
		if g1.X[i] != g2.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("prefix-sharing keys returned the same factorization")
	}
	for i := range g1.X {
		if g1.X[i] != r1.X[i] || g2.X[i] != r2.X[i] {
			t.Fatal("loads returned swapped factorizations")
		}
	}
}

// TestDigestFullLength: the cache key is the full SHA-256, not a truncation.
func TestDigestFullLength(t *testing.T) {
	p := mustParse(t, MatrixSpec{N: 80, Gen: "random", Seed: 1}, ConfigSpec{NB: 40})
	if len(p.key) != 64 {
		t.Fatalf("digest has %d hex chars, want the full 64", len(p.key))
	}
	if s := ShortDigest(p.key); len(s) != 12 || !strings.HasPrefix(p.key, s) {
		t.Fatalf("ShortDigest(%q) = %q, want its 12-char prefix", p.key, s)
	}
}

// TestAlphaZeroPureHQR: an explicit `"alpha": 0` must reach the criterion
// (pure HQR — zero LU steps) and cache under a different key than the
// default α = 100. Regression for the zero-vs-unset remapping bug.
func TestAlphaZeroPureHQR(t *testing.T) {
	zero := 0.0
	p0 := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 8}, ConfigSpec{NB: 40, Alpha: &zero})
	pDef := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 8}, ConfigSpec{NB: 40})
	if p0.key == pDef.key {
		t.Fatal("alpha 0 and default alpha share a cache key")
	}
	if p0.criterion != "max/0" {
		t.Fatalf("criterion label = %q, want max/0", p0.criterion)
	}

	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	client := ts.Client()
	st, body := postJSON(t, client, ts.URL+"/v1/jobs", map[string]any{
		"matrix": map[string]any{"n": 160, "gen": "random", "seed": 8},
		"config": map[string]any{"alg": "luqr", "nb": 40, "alpha": 0},
	})
	if st != http.StatusAccepted {
		t.Fatalf("submit: got %d: %s", st, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	var jv JobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, client, ts.URL+"/v1/jobs/"+sub.ID, &jv)
		if jv.State == StateDone || jv.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", jv.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jv.State != StateDone {
		t.Fatalf("job failed: %s", jv.Error)
	}
	if jv.Report.LUSteps != 0 {
		t.Fatalf("alpha 0 ran %d LU steps, want 0 (pure HQR)", jv.Report.LUSteps)
	}
	for k, d := range jv.Report.Decisions {
		if d != "qr" {
			t.Fatalf("decision[%d] = %q, want qr everywhere under alpha 0", k, d)
		}
	}
}

// TestAlphaNegativeRejected: a negative α is a 400, not a silent remap.
func TestAlphaNegativeRejected(t *testing.T) {
	neg := -1.0
	if _, err := parse(MatrixSpec{N: 80, Gen: "random"}, ConfigSpec{NB: 40, Alpha: &neg}, nil, Options{MaxN: 4096}); err == nil {
		t.Fatal("negative alpha accepted")
	}
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	st, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", map[string]any{
		"matrix": map[string]any{"n": 160, "gen": "random"},
		"config": map[string]any{"nb": 40, "alpha": -3},
	})
	if st != http.StatusBadRequest {
		t.Fatalf("negative alpha over the wire: got %d, want 400: %s", st, body)
	}
}

// TestCacheEvictionRacesInFlight hammers getOrCreate/lookup/complete from
// many goroutines over a tiny cache so eviction constantly runs against
// in-flight entries. Run under -race; also asserts an entry in flight
// throughout is never evicted.
func TestCacheEvictionRacesInFlight(t *testing.T) {
	var met Metrics
	c := newCache(2, &met)

	pinned, created := c.getOrCreate("pinned")
	if !created {
		t.Fatal("pinned should be fresh")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := string(rune('a'+g)) + "-" + string(rune('0'+i%10))
				e, created := c.getOrCreate(key)
				if created {
					e.complete(nil, nil)
				}
				c.lookup(key)
				c.lookup("pinned")
			}
		}(g)
	}
	wg.Wait()

	if _, ok := c.lookup("pinned"); !ok {
		t.Fatal("in-flight entry was evicted")
	}
	pinned.complete(nil, nil)
	if met.CacheEvictions.Load() == 0 {
		t.Fatal("no evictions despite 80 keys through a 2-entry cache")
	}
}

// TestCacheRemoveWithQueuedSolves: removing an entry from the cache (the
// failed-entry retry path) must not strand right-hand sides already queued
// against it — the batch leader drains them off the entry object itself.
func TestCacheRemoveWithQueuedSolves(t *testing.T) {
	var met Metrics
	c := newCache(4, &met)
	p := mustParse(t, MatrixSpec{N: 80, Gen: "random", Seed: 3}, ConfigSpec{NB: 40})
	res, err := core.Run(p.operator(), p.b, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, created := c.getOrCreate(p.key)
	if !created {
		t.Fatal("entry should be fresh")
	}
	e.complete(res, nil)

	// Queue three solves without a running leader, then drop the entry from
	// the cache before draining — exactly what a concurrent remove does.
	chans := make([]chan solveOut, 3)
	e.bmu.Lock()
	for i := range chans {
		b := make([]float64, 80)
		b[i] = 1
		chans[i] = make(chan solveOut, 1)
		e.pending = append(e.pending, pendingSolve{b: b, ch: chans[i]})
	}
	e.solving = true
	e.bmu.Unlock()

	c.remove(p.key)
	if _, ok := c.lookup(p.key); ok {
		t.Fatal("entry still resident after remove")
	}
	e.drainBatches(&met)
	for i, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("queued solve %d failed after remove: %v", i, out.err)
		}
		if out.batch != 3 {
			t.Fatalf("queued solve %d rode batch %d, want 3", i, out.batch)
		}
	}
}
