package service

import (
	"context"
	"math"
	"testing"

	"luqr/internal/core"
	"luqr/internal/mat"
)

// TestPrecisionDigestSeparation checks the cache-key contract of the
// precision knob: pure-f64 keys keep their historical (precision-free) form,
// auto/f32 requests get distinct keys, and an algorithm without float32
// coverage shares the f64 key — its effective precision IS f64.
func TestPrecisionDigestSeparation(t *testing.T) {
	spec := MatrixSpec{N: 160, Gen: "random", Seed: 3}
	base := mustParse(t, spec, ConfigSpec{NB: 40})
	f64 := mustParse(t, spec, ConfigSpec{NB: 40, Precision: "f64"})
	auto := mustParse(t, spec, ConfigSpec{NB: 40, Precision: "auto"})
	f32 := mustParse(t, spec, ConfigSpec{NB: 40, Precision: "f32"})
	if f64.key != base.key {
		t.Fatalf("explicit f64 changed the digest: %s vs %s", f64.key, base.key)
	}
	if auto.key == base.key || f32.key == base.key || auto.key == f32.key {
		t.Fatalf("precision digests collide: f64=%s auto=%s f32=%s",
			ShortDigest(base.key), ShortDigest(auto.key), ShortDigest(f32.key))
	}
	// luincpiv has no float32 path; requesting f32 on it must share the f64
	// factorization rather than split the cache on a knob that does nothing.
	inc := mustParse(t, spec, ConfigSpec{Alg: "luincpiv", NB: 40})
	incF32 := mustParse(t, spec, ConfigSpec{Alg: "luincpiv", NB: 40, Precision: "f32"})
	if inc.key != incF32.key {
		t.Fatalf("ineffective f32 split the luincpiv digest: %s vs %s", inc.key, incF32.key)
	}
	if _, err := parse(spec, ConfigSpec{NB: 40, Precision: "half"}, nil, Options{MaxN: 4096}); err == nil {
		t.Fatal("precision \"half\" accepted")
	}
}

// TestPrecisionJobReportAndMetrics submits a forced-f32 job and checks the
// mixed-precision accounting surfaces: the job view's report carries
// precision, f32_steps and refine_iters, and /metrics accumulates them.
func TestPrecisionJobReportAndMetrics(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 8, Concurrency: 1})
	defer m.Drain(context.Background())
	p := mustParse(t, MatrixSpec{N: 160, Gen: "diagdom", Seed: 7}, ConfigSpec{NB: 40, Precision: "f32"})
	j, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	v := j.View()
	if v.Report == nil {
		t.Fatal("finished job has no report")
	}
	r := v.Report
	if r.Precision != "f32" {
		t.Fatalf("report precision = %q, want f32", r.Precision)
	}
	if r.F32Steps == 0 {
		t.Fatalf("report shows no f32 steps (demotions=%d)", r.Demotions)
	}
	if r.RefineIters == 0 {
		t.Fatal("report shows no refinement on an f32 factorization")
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > 16 {
		t.Fatalf("refined HPL3 = %g, want inside the acceptance band", r.HPL3)
	}
	ms := m.MetricsSnapshot()
	if ms.Precision.F32Jobs != 1 || ms.Precision.F32Steps != int64(r.F32Steps) ||
		ms.Precision.RefineIters < int64(r.RefineIters) {
		t.Fatalf("metrics precision block = %+v, want 1 f32 job / %d steps / ≥%d refine iters",
			ms.Precision, r.F32Steps, r.RefineIters)
	}
	// A pure-f64 job must leave the report's precision fields absent.
	p64 := mustParse(t, MatrixSpec{N: 160, Gen: "diagdom", Seed: 7}, ConfigSpec{NB: 40})
	j64, err := m.Submit(p64)
	if err != nil {
		t.Fatal(err)
	}
	<-j64.done
	if r64 := j64.View().Report; r64 == nil || r64.Precision != "" || r64.F32Steps != 0 {
		t.Fatalf("f64 job leaked precision fields: %+v", r64)
	}
}

// TestPrecisionRestartRoundTrip is the restart round trip for a
// mixed-precision factorization: an f32 job spilled by one Manager
// warm-loads in a fresh one, the warm solve still refines (the retained
// original matrix survived serialization), and the solution is bit-identical
// to the pre-restart one.
func TestPrecisionRestartRoundTrip(t *testing.T) {
	opts := storeOpts(t)
	p := mustParse(t, MatrixSpec{N: 160, Gen: "diagdom", Seed: 11}, ConfigSpec{NB: 40, Precision: "f32"})
	rhs := make([]float64, 160)
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}

	m1 := mustManager(t, opts)
	x1 := factorAndDrain(t, m1, p, rhs)
	if m1.met.F32Jobs.Load() != 1 {
		t.Fatalf("f32 jobs = %d, want 1", m1.met.F32Jobs.Load())
	}
	if h := mat.HPL3(p.operator(), x1, rhs); math.IsNaN(h) || h > 16 {
		t.Fatalf("cold refined solve HPL3 = %g", h)
	}

	m2 := mustManager(t, opts)
	defer m2.Drain(context.Background())
	x2, _, _, _, err := m2.Solve(context.Background(), p, rhs)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if got := m2.met.StoreWarmHits.Load(); got != 1 {
		t.Fatalf("warm hits after restart = %d, want 1", got)
	}
	if got := m2.met.CacheMisses.Load(); got != 0 {
		t.Fatalf("cache misses after restart = %d, want 0", got)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("restarted f32 solve diverges at x[%d]: %g vs %g", i, x1[i], x2[i])
		}
	}
	// The warm solve refined through the reloaded factors.
	if got := m2.met.RefineIters.Load(); got == 0 {
		t.Fatal("warm solve performed no refinement on an f32 factorization")
	}
	if res := warmResult(t, m2, p.key); res.Report.F32Steps == 0 || res.Report.Precision != core.PrecisionF32 {
		t.Fatalf("reloaded report lost precision state: prec=%v f32 steps=%d",
			res.Report.Precision, res.Report.F32Steps)
	}
}

// warmResult digs the reloaded Result for key out of m's cache.
func warmResult(t *testing.T, m *Manager, key string) *core.Result {
	t.Helper()
	e, ok := m.cache.lookup(key)
	if !ok {
		t.Fatalf("no cache entry for %s", ShortDigest(key))
	}
	<-e.ready
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.res
}
