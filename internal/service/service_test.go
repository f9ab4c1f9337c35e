package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"luqr/internal/core"
	"luqr/internal/matgen"
)

// mustManager builds a Manager or fails the test (NewManager can only fail
// on factor-store setup, which these options don't use).
func mustManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServiceEndToEnd drives the full HTTP surface: submit an N=480 job,
// poll it to completion, inspect its per-step decisions, then issue two
// solve calls against the now-cached factorization and assert via /metrics
// that neither re-factored.
func TestServiceEndToEnd(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 8, Concurrency: 2, CacheEntries: 4})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	client := ts.Client()

	const n, seed = 480, 3
	mtx := map[string]any{"n": n, "gen": "random", "seed": seed}
	cfg := map[string]any{"alg": "luqr", "nb": 40, "criterion": "max", "alpha": 100}

	// Submit and poll to completion.
	st, body := postJSON(t, client, ts.URL+"/v1/jobs", map[string]any{"matrix": mtx, "config": cfg})
	if st != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202: %s", st, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	var jv JobView
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := getJSON(t, client, ts.URL+"/v1/jobs/"+sub.ID, &jv); st != http.StatusOK {
			t.Fatalf("status: got %d", st)
		}
		if jv.State == StateDone || jv.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", sub.ID, jv.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if jv.State != StateDone {
		t.Fatalf("job failed: %s", jv.Error)
	}
	if jv.Report == nil {
		t.Fatal("done job has no report")
	}
	if got := len(jv.Report.Decisions); got != n/40 {
		t.Fatalf("report has %d per-step decisions, want %d", got, n/40)
	}
	for _, d := range jv.Report.Decisions {
		if d != "lu" && d != "qr" {
			t.Fatalf("decision %q is neither lu nor qr", d)
		}
	}

	// Two solves against the cached factorization; both must be hits.
	rng := rand.New(rand.NewSource(99))
	var xs [2][]float64
	var rhss [2][]float64
	for i := 0; i < 2; i++ {
		rhs := make([]float64, n)
		for k := range rhs {
			rhs[k] = rng.NormFloat64()
		}
		rhss[i] = rhs
		st, body := postJSON(t, client, ts.URL+"/v1/solve",
			map[string]any{"matrix": mtx, "config": cfg, "rhs": rhs})
		if st != http.StatusOK {
			t.Fatalf("solve %d: got %d: %s", i, st, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("solve %d response: %v", i, err)
		}
		if !sr.CacheHit {
			t.Fatalf("solve %d: cache_hit=false, want a cached factorization", i)
		}
		if len(sr.X) != n {
			t.Fatalf("solve %d: len(x)=%d, want %d", i, len(sr.X), n)
		}
		xs[i] = sr.X
	}

	// The solutions must actually solve A·x = b.
	e, err := matgen.ByName("random")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Gen(n, rand.New(rand.NewSource(seed)))
	for i := 0; i < 2; i++ {
		var worst float64
		for r := 0; r < n; r++ {
			s := 0.0
			for c := 0; c < n; c++ {
				s += a.Data[r*a.Stride+c] * xs[i][c]
			}
			if d := math.Abs(s - rhss[i][r]); d > worst {
				worst = d
			}
		}
		if worst > 1e-6 {
			t.Fatalf("solve %d residual too large: %g", i, worst)
		}
	}

	// The factorization ran exactly once; both solves were hits.
	var ms MetricsSnapshot
	if st := getJSON(t, client, ts.URL+"/metrics", &ms); st != http.StatusOK {
		t.Fatalf("metrics: got %d", st)
	}
	if ms.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (a single factorization)", ms.Cache.Misses)
	}
	if ms.Cache.Hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2 (both solves cached)", ms.Cache.Hits)
	}
	if ms.Jobs.Done < 1 {
		t.Fatalf("jobs done = %d, want >= 1", ms.Jobs.Done)
	}
	if ms.Solve.Requests != 2 || ms.Solve.BatchedRHS != 2 {
		t.Fatalf("solve counters = %+v, want 2 requests / 2 batched RHS", ms.Solve)
	}
	if len(ms.Kernels.Kernels) == 0 || ms.Kernels.Tasks == 0 {
		t.Fatalf("metrics carry no kernel totals: %+v", ms.Kernels)
	}

	if st := getJSON(t, client, ts.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz: got %d", st)
	}
}

// TestQueueFull429 fills a 1-slot queue behind a single busy worker and
// asserts the service answers 429 rather than queueing unboundedly.
func TestQueueFull429(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 1, Concurrency: 1, CacheEntries: 4})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	client := ts.Client()

	// Distinct seeds → distinct cache keys → every job factors from scratch.
	// The first keeps the only worker busy for a while (N=960 ≈ 8x the work
	// of N=480); the rest overfill the 1-slot queue.
	saw429 := false
	for i := 0; i < 4; i++ {
		n := 480
		if i == 0 {
			n = 960
		}
		st, body := postJSON(t, client, ts.URL+"/v1/jobs", map[string]any{
			"matrix": map[string]any{"n": n, "gen": "random", "seed": 100 + i},
			"config": map[string]any{"nb": 40},
		})
		switch st {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
				t.Fatalf("429 body = %s", body)
			}
		default:
			t.Fatalf("submit %d: got %d: %s", i, st, body)
		}
	}
	if !saw429 {
		t.Fatal("never saw a 429 despite overfilling a 1-slot queue")
	}
	var ms MetricsSnapshot
	getJSON(t, client, ts.URL+"/metrics", &ms)
	if ms.Queue.Rejected == 0 {
		t.Fatal("metrics report zero rejected submissions")
	}
}

// TestDrainCompletesRunningJobs starts work, then drains: the running and
// queued jobs must finish, and post-drain submissions must be refused.
func TestDrainCompletesRunningJobs(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, CacheEntries: 4})
	var jobs []*Job
	for i := 0; i < 2; i++ {
		p, err := parse(MatrixSpec{N: 480, Gen: "random", Seed: int64(200 + i)},
			ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, j := range jobs {
		if s := j.State(); s != StateDone {
			t.Fatalf("job %d drained into state %s (err=%v), want done", i, s, j.Err())
		}
	}
	p, err := parse(MatrixSpec{N: 480, Gen: "random", Seed: 1}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(p); err != ErrDraining {
		t.Fatalf("post-drain submit: err=%v, want ErrDraining", err)
	}
}

// TestCancelQueuedJob cancels a job stuck behind a busy worker before it
// runs.
func TestCancelQueuedJob(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, CacheEntries: 4})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	client := ts.Client()

	// Blocker holds the only worker; victim waits in the queue.
	blocker := map[string]any{
		"matrix": map[string]any{"n": 960, "gen": "random", "seed": 300},
		"config": map[string]any{"nb": 40},
	}
	victim := map[string]any{
		"matrix": map[string]any{"n": 480, "gen": "random", "seed": 301},
		"config": map[string]any{"nb": 40},
	}
	if st, body := postJSON(t, client, ts.URL+"/v1/jobs", blocker); st != http.StatusAccepted {
		t.Fatalf("blocker: got %d: %s", st, body)
	}
	st, body := postJSON(t, client, ts.URL+"/v1/jobs", victim)
	if st != http.StatusAccepted {
		t.Fatalf("victim: got %d: %s", st, body)
	}
	var sub submitResponse
	json.Unmarshal(body, &sub)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	// The victim is either still queued (cancel lands, 200) or the blocker
	// finished improbably fast and it ran (409). Both are valid protocol
	// outcomes; only the queued case must cancel.
	switch resp.StatusCode {
	case http.StatusOK:
		if jv.State != StateCanceled {
			t.Fatalf("canceled job in state %s", jv.State)
		}
	case http.StatusConflict:
		t.Logf("victim already running; cancel correctly refused")
	default:
		t.Fatalf("cancel: got %d", resp.StatusCode)
	}
}

// TestSolveBatchingDeterministic stages three right-hand sides against one
// cached factorization and runs a single drain pass, asserting they ride in
// one batch.
func TestSolveBatchingDeterministic(t *testing.T) {
	const n = 160
	p, err := parse(MatrixSpec{N: n, Gen: "random", Seed: 7}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p.operator(), p.b, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &entry{key: p.key, ready: make(chan struct{})}
	e.complete(res, nil)

	var met Metrics
	rng := rand.New(rand.NewSource(11))
	chans := make([]chan solveOut, 3)
	e.bmu.Lock()
	for i := range chans {
		b := make([]float64, n)
		for k := range b {
			b[k] = rng.NormFloat64()
		}
		chans[i] = make(chan solveOut, 1)
		e.pending = append(e.pending, pendingSolve{b: b, ch: chans[i]})
	}
	e.solving = true
	e.bmu.Unlock()
	e.drainBatches(&met)

	for i, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("batched solve %d: %v", i, out.err)
		}
		if out.batch != 3 {
			t.Fatalf("solve %d rode in batch of %d, want 3", i, out.batch)
		}
	}
	if got := met.SolveMaxBatch.Load(); got != 3 {
		t.Fatalf("max batch = %d, want 3", got)
	}
	if met.SolveBatches.Load() != 1 || met.SolveBatchedRHS.Load() != 3 {
		t.Fatalf("batches=%d rhs=%d, want 1/3", met.SolveBatches.Load(), met.SolveBatchedRHS.Load())
	}
}

// TestConcurrentSolvesShareOneFactorization fires many concurrent solves of
// one cold operator; exactly one factorization may run.
func TestConcurrentSolvesShareOneFactorization(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 16, Concurrency: 2, CacheEntries: 4})
	defer m.Drain(context.Background())

	const n, workers = 480, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := parse(MatrixSpec{N: n, Gen: "random", Seed: 42},
				ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
			if err != nil {
				errs <- err
				return
			}
			rhs := make([]float64, n)
			rhs[i] = 1
			x, _, _, _, err := m.Solve(context.Background(), p, rhs)
			if err != nil {
				errs <- fmt.Errorf("solve %d: %w", i, err)
				return
			}
			if len(x) != n {
				errs <- fmt.Errorf("solve %d: len(x)=%d", i, len(x))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := m.met.CacheMisses.Load(); got != 1 {
		t.Fatalf("cache misses = %d, want 1: concurrent solves must share a factorization", got)
	}
}

func TestDigestKey(t *testing.T) {
	base := func() (*parsedRequest, error) {
		return parse(MatrixSpec{N: 160, Gen: "random", Seed: 1}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	}
	p1, err := base()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := base()
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("identical requests digest differently: %s vs %s", p1.key, p2.key)
	}
	// Workers must NOT split the cache (factors are bit-identical).
	p3, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: 1}, ConfigSpec{NB: 40, Workers: 3}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if p3.key != p1.key {
		t.Fatal("worker count split the cache key")
	}
	// Anything numerically relevant must split it.
	alpha50 := 50.0
	for name, cs := range map[string]ConfigSpec{
		"nb":        {NB: 80},
		"alg":       {NB: 40, Alg: "hqr"},
		"criterion": {NB: 40, Criterion: "sum"},
		"alpha":     {NB: 40, Alpha: &alpha50},
		"grid":      {NB: 40, P: 2, Q: 2},
	} {
		p, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: 1}, cs, nil, Options{MaxN: 4096})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.key == p1.key {
			t.Fatalf("changing %s did not change the cache key", name)
		}
	}
	// A different seed is a different operator.
	p4, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: 2}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if p4.key == p1.key {
		t.Fatal("different matrix seeds share a cache key")
	}
	// Explicit data digests by value.
	d1 := make([]float64, 160*160)
	d2 := make([]float64, 160*160)
	for i := range d1 {
		d1[i] = float64(i%7) + 1
		d2[i] = d1[i]
	}
	d2[0] += 1e-9
	q1, err := parse(MatrixSpec{N: 160, Data: d1}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := parse(MatrixSpec{N: 160, Data: d2}, ConfigSpec{NB: 40}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if q1.key == q2.key {
		t.Fatal("matrices differing in one bit share a cache key")
	}

	// The key bytes name every stored factorization, so they must not move:
	// these digests were computed before the data hashing was chunked. The
	// data operator's 2025 entries end in a partial 4 KiB chunk, and -0 and
	// a subnormal hash by their bits.
	if want := "34dba41d97d7c48097404e7aafd80cd98d18540aa0a92075b0d7968649b40573"; p1.key != want {
		t.Errorf("gen key %s, want %s", p1.key, want)
	}
	d := make([]float64, 45*45)
	for i := range d {
		d[i] = float64(i%7) + 1
	}
	d[0], d[1] = math.Copysign(0, -1), 1e-310
	q3, err := parse(MatrixSpec{N: 45, Data: d}, ConfigSpec{NB: 15}, nil, Options{MaxN: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if want := "ab7eabd0b842fca90584251c47491c7bd3d76310e8297a7634d847dc5501400d"; q3.key != want {
		t.Errorf("data key %s, want %s", q3.key, want)
	}
}

func TestCacheLRUEvictsOnlyCompleted(t *testing.T) {
	var met Metrics
	c := newCache(2, &met)

	e1, created := c.getOrCreate("k1")
	if !created {
		t.Fatal("k1 should be created")
	}
	e1.complete(nil, nil)
	e2, _ := c.getOrCreate("k2") // in flight, never completed
	_ = e2
	// k3 must evict k1 (completed), not k2 (in flight).
	c.getOrCreate("k3")
	if _, ok := c.lookup("k1"); ok {
		t.Fatal("k1 should have been evicted")
	}
	if _, ok := c.lookup("k2"); !ok {
		t.Fatal("in-flight k2 must survive eviction")
	}
	if met.CacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", met.CacheEvictions.Load())
	}
	// With both residents in flight/over cap, creation still succeeds.
	c.getOrCreate("k4")
	if c.len() != 3 {
		t.Fatalf("cache len = %d, want 3 (transient over-cap with in-flight entries)", c.len())
	}
}

// invalidBodies are request bodies parse must reject: each breaks one
// validation rule against a MaxN=512 service.
var invalidBodies = map[string]map[string]any{
	"no-operator":  {"matrix": map[string]any{"n": 160}},
	"n-not-tile":   {"matrix": map[string]any{"n": 161, "gen": "random"}},
	"over-max-n":   {"matrix": map[string]any{"n": 1024, "gen": "random"}},
	"bad-alg":      {"matrix": map[string]any{"n": 160, "gen": "random"}, "config": map[string]any{"alg": "cholesky"}},
	"bad-gen":      {"matrix": map[string]any{"n": 160, "gen": "nosuch"}},
	"gen-domain":   {"matrix": map[string]any{"n": 3, "gen": "condex"}, "config": map[string]any{"nb": 1}},
	"rhs-mismatch": {"matrix": map[string]any{"n": 160, "gen": "random"}, "rhs": []float64{1, 2}},
	"workers-huge": {"matrix": map[string]any{"n": 40, "gen": "random"}, "config": map[string]any{"workers": int64(1) << 36}},
}

func TestHTTPValidation(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, MaxN: 512})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 2048)) // tiny body limit for the 413 case
	defer ts.Close()
	client := ts.Client()

	// 404 for an unknown job.
	if st := getJSON(t, client, ts.URL+"/v1/jobs/j-999999", nil); st != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", st)
	}

	// 400 for malformed JSON.
	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %d, want 400", resp.StatusCode)
	}

	// 400 for semantic errors.
	for name, body := range invalidBodies {
		if st, out := postJSON(t, client, ts.URL+"/v1/jobs", body); st != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400: %s", name, st, out)
		}
	}

	// 413 for an oversized body.
	bigRHS := make([]float64, 4096)
	for i := range bigRHS {
		bigRHS[i] = 0.123456789
	}
	big := map[string]any{"matrix": map[string]any{"n": 160, "gen": "random"}, "rhs": bigRHS}
	if st, _ := postJSON(t, client, ts.URL+"/v1/solve", big); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", st)
	}
}

// FuzzParse: whatever the body, the served decoder and the request parser
// with no tuner either reject it or yield a request inside the service
// limits (N ≤ MaxN, nb dividing N, workers within core.MaxWorkers) whose
// digest a second parse reproduces. Seeds are a valid body and
// TestHTTPValidation's invalid ones.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"matrix":{"n":160,"gen":"random","seed":3},"config":{"alg":"luqr","nb":40,"p":2,"q":2,"alpha":0,"workers":2,"precision":"auto"},"rhs":null}`))
	f.Add([]byte(`{"matrix":{"n":2,"data":[4,1,1,3]},"config":{"nb":1,"criterion":"sum","variant":"b2"},"rhs":[1,2]}`))
	for _, body := range invalidBodies {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	opts := Options{MaxN: 512}
	memo := newDataMemo(16, DefaultMaxBodyBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, _, err := decodeRequest(data, nil)
		if err != nil {
			return
		}
		p, err := parse(req.Matrix, req.Config, req.RHS, opts)
		if err != nil {
			return
		}
		n, nb, w := p.spec.N, p.cfg.NB, p.cfg.Workers
		if n > opts.MaxN || nb <= 0 || n%nb != 0 || w < 0 || w > core.MaxWorkers {
			t.Fatalf("accepted n=%d nb=%d workers=%d", n, nb, w)
		}
		again, err := parse(req.Matrix, req.Config, req.RHS, opts)
		if err != nil || again.key != p.key {
			t.Fatalf("second parse: key %s vs %s, err %v", again.key, p.key, err)
		}
		// Through a memo, three times, remembering each accepted array: the
		// third decode of a data array takes the kept values, and its
		// digest resumes the state the first digest through the memo left;
		// the key must not move.
		for pass := 0; pass < 3; pass++ {
			req, key, err := decodeRequest(data, memo)
			if err != nil {
				t.Fatalf("memo pass %d: %v", pass, err)
			}
			mp, err := parse(req.Matrix, req.Config, req.RHS, opts)
			if err != nil || mp.key != p.key {
				t.Fatalf("memo pass %d: key %s vs %s, err %v", pass, mp.key, p.key, err)
			}
			memo.remember(key, req.Matrix.Data)
		}
	})
}

// TestVariantJobViewCarriesMargins: a Max-criterion job of every LU-step
// variant reports its criterion margins' range, including a minimum of 0
// (the last step's, with nothing below the diagonal).
func TestVariantJobViewCarriesMargins(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1})
	defer m.Drain(context.Background())
	for _, variant := range []string{"a1", "a2", "b1", "b2"} {
		p := mustParse(t, MatrixSpec{N: 160, Gen: "random", Seed: 5}, ConfigSpec{NB: 40, Criterion: "max", Variant: variant})
		j, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(j.View())
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Report map[string]any `json:"report"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Report["margin_min"]; !ok {
			t.Errorf("variant %s: job view has no margin_min: %s", variant, body)
		}
		if _, ok := v.Report["margin_max"]; !ok {
			t.Errorf("variant %s: job view has no margin_max: %s", variant, body)
		}
	}
}
