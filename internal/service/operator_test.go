package service

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"testing"
	"time"

	"luqr/internal/matgen"
)

// TestParseGenDomain: parse rejects an order below a generator's domain
// instead of panicking, and every order it accepts builds without a panic
// — generation runs in a job worker, where a panic would take the server
// down.
func TestParseGenDomain(t *testing.T) {
	names := []string{"random", "diagdom"}
	for _, e := range matgen.SpecialSet() {
		names = append(names, e.Name)
	}
	for _, name := range names {
		e, err := matgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			p, err := parse(MatrixSpec{N: n, Gen: name, Seed: 1}, ConfigSpec{NB: 1}, nil, Options{MaxN: 4096})
			if (err != nil) != (n < e.MinN) {
				t.Fatalf("%s n=%d (MinN %d): parse error %v", name, n, e.MinN, err)
			}
			if err != nil {
				continue
			}
			if a := p.operator(); a.Rows != n || a.Cols != n {
				t.Fatalf("%s n=%d: operator is %dx%d", name, n, a.Rows, a.Cols)
			}
		}
	}
}

// allocBytes reports the heap bytes f allocates per call, averaged over reps.
func allocBytes(reps int, f func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(reps)
}

// TestParseDoesNotBuildOperator: decoding a generator-named request costs
// O(N) (the default right-hand side), not the N² floats of the operator.
func TestParseDoesNotBuildOperator(t *testing.T) {
	const n = 2048 // the operator alone would be 32 MiB
	parseOnce := func() {
		if _, err := parse(MatrixSpec{N: n, Gen: "random", Seed: 1}, ConfigSpec{NB: 64}, nil, Options{MaxN: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	parseOnce()
	if per := allocBytes(10, parseOnce); per >= 64<<10 {
		t.Fatalf("parse at N=%d allocates %d bytes, want < 64 KiB", n, per)
	}
}

// TestCacheHitDoesNotBuildOperator: a cached solve — parse plus the replay —
// allocates far less than one copy of the operator.
func TestCacheHitDoesNotBuildOperator(t *testing.T) {
	const n = 512
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, Workers: 1})
	defer m.Drain(context.Background())
	spec := MatrixSpec{N: n, Gen: "random", Seed: 5}
	cs := ConfigSpec{NB: 64}
	opts := m.Options()
	hit := true
	solve := func() {
		p, err := parse(spec, cs, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, h, _, _, err := m.Solve(context.Background(), p, p.b)
		if err != nil {
			t.Fatal(err)
		}
		hit = hit && h
	}
	solve() // miss: factors and caches
	hit = true
	if per := allocBytes(5, solve); per >= n*n*8/4 {
		t.Fatalf("cached solve at N=%d allocates %d bytes, want < %d", n, per, n*n*8/4)
	}
	if !hit {
		t.Fatal("repeated solves were not cache hits")
	}
}

// TestDataOperatorIsUnmodified: explicit data is factored through a view of
// the decoded slice, which the run must leave untouched.
func TestDataOperatorIsUnmodified(t *testing.T) {
	const n = 80
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1})
	defer m.Drain(context.Background())
	data := matgen.Random(n, rand.New(rand.NewSource(6))).Data
	orig := append([]float64(nil), data...)
	p, err := parse(MatrixSpec{N: n, Data: data}, ConfigSpec{NB: 40}, nil, m.Options())
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("matrix.data[%d] changed from %v to %v", i, orig[i], data[i])
		}
	}
	if h := j.View().Report.HPL3; !(h < 16) {
		t.Fatalf("data job HPL3 = %v", h)
	}
}

// runToDone submits p and waits for the job to finish.
func runToDone(t *testing.T, m *Manager, p *parsedRequest) *Job {
	t.Helper()
	j, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJobViewFrozenAtFinish: the status body of a finished job is rendered
// from its run's report exactly as it was while the Result was live, and
// stays byte-identical after the factorization leaves the cache.
func TestJobViewFrozenAtFinish(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, CacheEntries: 1})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m, 0))
	defer ts.Close()
	get := func(id string) []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d %v", id, resp.StatusCode, err)
		}
		return out
	}

	alpha := 100.0
	p, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: 8},
		ConfigSpec{NB: 40, Criterion: "max", Alpha: &alpha, Precision: "auto"}, nil, m.Options())
	if err != nil {
		t.Fatal(err)
	}
	j := runToDone(t, m, p)
	before := get(j.ID)

	e, ok := m.cache.lookup(p.key)
	if !ok {
		t.Fatal("factorization not cached")
	}
	r := e.res.Report
	var v JobView
	if err := json.Unmarshal(before, &v); err != nil {
		t.Fatal(err)
	}
	if v.Report == nil || v.CacheKey != p.key || v.Report.N != r.N || v.Report.LUSteps != r.LUSteps ||
		v.Report.HPL3 != r.HPL3 || v.Report.Criterion != "max/100" || v.Report.AlphaSource != "explicit" ||
		v.Report.WallMS != float64(r.WallTime.Microseconds())/1000 || len(v.Report.Decisions) != len(r.Decisions) {
		t.Fatalf("report view %+v does not render the run's report %+v", v.Report, r)
	}
	live, err := json.Marshal(newReportView(r, p))
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := json.Marshal(v.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(frozen) {
		t.Fatalf("frozen report\n%s\ndiffers from the live rendering\n%s", frozen, live)
	}

	// Evict the entry (capacity 1) and check the body again.
	p2, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: 9}, ConfigSpec{NB: 40}, nil, m.Options())
	if err != nil {
		t.Fatal(err)
	}
	runToDone(t, m, p2)
	if _, ok := m.cache.lookup(p.key); ok {
		t.Fatal("first factorization still cached")
	}
	goruntime.GC()
	if after := get(j.ID); string(after) != string(before) {
		t.Fatalf("job body changed after eviction:\n%s\nvs\n%s", after, before)
	}
}

// TestFinishedJobReleasesResult: once its cache entry is evicted, a
// finished job in the history no longer keeps the factorization reachable.
func TestFinishedJobReleasesResult(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1, CacheEntries: 1})
	defer m.Drain(context.Background())
	run := func(seed int64) (*Job, *parsedRequest) {
		p, err := parse(MatrixSpec{N: 160, Gen: "random", Seed: seed}, ConfigSpec{NB: 40}, nil, m.Options())
		if err != nil {
			t.Fatal(err)
		}
		return runToDone(t, m, p), p
	}
	j, p := run(10)
	collected := make(chan struct{})
	func() {
		e, ok := m.cache.lookup(p.key)
		if !ok {
			t.Fatal("factorization not cached")
		}
		goruntime.SetFinalizer(e.res, func(any) { close(collected) })
	}()
	run(11) // evicts the first entry
	if _, ok := m.Job(j.ID); !ok {
		t.Fatal("finished job fell out of the history")
	}
	for i := 0; i < 50; i++ {
		goruntime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("evicted factorization is still reachable from the job history")
}
