package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/service"
	"luqr/internal/tile"
	"luqr/internal/tune"
)

// The serve workload runs luqr-serve's defaults in process and drives them
// with serveClients closed-loop clients. Every request pins nb=64, α=100 and
// a 2×2 grid. Generator-named operators are diagdom of order serveN; the
// explicit-data ones are of order serveDataN, because decoding an order-512
// matrix from JSON alone takes ≈130-150 ms.
const (
	serveN       = 512
	serveDataN   = 256
	serveNB      = 64
	serveClients = 2
	hotGen       = 4
	hotData      = 2
	// seedStride separates the operator seeds of different workload seeds.
	seedStride = 1_000_003
	// rssRequests is the served work after which peak_rss_mb is read.
	rssRequests = 1000
)

type kind int

const (
	kindHit kind = iota
	kindMiss
	kindData
)

var kindNames = [...]string{"hit", "miss", "data"}

// serveConfig is the config every request pins.
var serveConfig = func() []byte {
	alpha := 100.0
	b, err := json.Marshal(service.ConfigSpec{Alg: "luqr", NB: serveNB, P: 2, Q: 2, Criterion: "max", Alpha: &alpha})
	if err != nil {
		panic(err) // a fixed struct always encodes
	}
	return b
}()

// operator is one operator of the rotation and its encoded "matrix" member.
type operator struct {
	n    int
	seed int64
	a    *mat.Matrix // nil for a miss until its answer is checked
	spec []byte
}

func genOperator(n int, seed int64, a *mat.Matrix) (*operator, error) {
	spec, err := json.Marshal(service.MatrixSpec{N: n, Gen: "diagdom", Seed: seed})
	return &operator{n: n, seed: seed, a: a, spec: spec}, err
}

func dataOperator(a *mat.Matrix) (*operator, error) {
	spec, err := json.Marshal(service.MatrixSpec{N: a.Rows, Data: a.Data})
	return &operator{n: a.Rows, a: a, spec: spec}, err
}

// request is one POST /v1/solve and its outcome.
type request struct {
	kind   kind
	op     *operator
	rhs    []float64
	start  time.Time
	dur    time.Duration
	status int
	err    error
	x      []float64
}

// body encodes the request without re-encoding the operator.
func (q *request) body() ([]byte, error) {
	rhs, err := json.Marshal(q.rhs)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString(`{"matrix":`)
	b.Write(q.op.spec)
	b.WriteString(`,"config":`)
	b.Write(serveConfig)
	b.WriteString(`,"rhs":`)
	b.Write(rhs)
	b.WriteByte('}')
	return b.Bytes(), nil
}

// check counts q in t: an error or a non-200 response fails, an answer is
// checked against the operator the benchmark generated.
func (q *request) check(t *tally) error {
	switch {
	case q.err != nil:
		t.failure(q.err.Error())
	case q.status != http.StatusOK:
		t.failure(fmt.Sprintf("HTTP %d", q.status))
	default:
		a := q.op.a
		if a == nil {
			var err error
			if a, err = generate("diagdom", q.op.n, q.op.seed); err != nil {
				return err
			}
		}
		t.solution(a, q.rhs, q.x, false)
	}
	return nil
}

// client sends solve requests to one server.
type client struct {
	url  string
	http *http.Client
}

// send posts q and reads the whole reply; the latency runs from just before
// the request is written until the response body has been read.
func (c *client) send(q *request) {
	body, err := q.body()
	if err != nil {
		q.err = err
		return
	}
	q.start = time.Now()
	resp, err := c.http.Post(c.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.dur = time.Since(q.start)
	q.status = resp.StatusCode
	if err != nil {
		q.err = err
		return
	}
	if q.status != http.StatusOK {
		return
	}
	var out struct {
		X []float64 `json:"x"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		q.err = fmt.Errorf("decoding reply: %w", err)
		return
	}
	q.x = out.X
}

// rotation is one client's seeded request sequence. It deals the requests
// from shuffled blocks that hold the mix exactly — in every block of 20,
// 16 hits spread evenly over the hot generator-named operators, 2 misses
// and 2 explicit-data hits — so the realized mix of a window, and with it
// the work a window does, does not vary with the seed.
type rotation struct {
	rng        *rand.Rand
	hot, data  []*operator
	block      []slot // the rest of the current block
	nextMiss   int64
	missStride int64
}

// slot is one request of a block: its kind and, for hits, which operator.
type slot struct {
	kind kind
	op   int
}

const (
	blockHits   = 16
	blockMisses = 2
	blockData   = 2
)

func (r *rotation) next() (*request, error) {
	if len(r.block) == 0 {
		for i := 0; i < blockHits; i++ {
			r.block = append(r.block, slot{kindHit, i % len(r.hot)})
		}
		for i := 0; i < blockMisses; i++ {
			r.block = append(r.block, slot{kind: kindMiss})
		}
		for i := 0; i < blockData; i++ {
			r.block = append(r.block, slot{kindData, i % len(r.data)})
		}
		r.rng.Shuffle(len(r.block), func(i, j int) { r.block[i], r.block[j] = r.block[j], r.block[i] })
	}
	s := r.block[len(r.block)-1]
	r.block = r.block[:len(r.block)-1]
	q := &request{kind: s.kind}
	switch s.kind {
	case kindHit:
		q.op = r.hot[s.op]
	case kindMiss:
		op, err := genOperator(serveN, r.nextMiss, nil)
		if err != nil {
			return nil, err
		}
		r.nextMiss += r.missStride
		q.op = op
	case kindData:
		q.op = r.data[s.op]
	}
	q.rhs = matgen.RandomVector(q.op.n, r.rng)
	return q, nil
}

// serveEnv is one running service: the manager, its HTTP server on a
// loopback listener, and the client that drives it.
type serveEnv struct {
	m         *service.Manager
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *client
	hot, data []*operator
}

// startService starts luqr-serve's defaults in process — concurrency 2,
// cache 16, queue 64, per-job tracing, an in-memory tuner with α learning,
// no store — and warms the hot set plus one untimed hit.
func startService(r *report, seed int64) (*serveEnv, error) {
	t0 := time.Now()
	m, err := service.NewManager(service.Options{
		QueueSize: 64, Concurrency: 2, CacheEntries: 16,
		Tuner: tune.New(tune.Options{}), LearnAlpha: true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, m.Drain(context.Background()))
	}
	e := &serveEnv{
		m:         m,
		srv:       &http.Server{Handler: service.NewServer(m, 0), ReadHeaderTimeout: 10 * time.Second},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.client = &client{url: "http://" + ln.Addr().String(), http: &http.Client{Transport: e.transport, Timeout: time.Minute}}
	r.rec.add("service", "service.NewManager+NewServer", 0, 0, t0, time.Now())

	if err := e.warm(r, seed); err != nil {
		return nil, errors.Join(err, e.stop())
	}
	return e, nil
}

// warm generates the hot operators, factors each through the service and
// sends one untimed hit, checking every answer.
func (e *serveEnv) warm(r *report, seed int64) error {
	base := seed * seedStride
	for i := 0; i < hotGen; i++ {
		t0 := time.Now()
		a, err := generate("diagdom", serveN, base+int64(i))
		if err != nil {
			return err
		}
		r.rec.add("matgen", "diagdom", 0, 0, t0, time.Now())
		op, err := genOperator(serveN, base+int64(i), a)
		if err != nil {
			return err
		}
		e.hot = append(e.hot, op)
	}
	for i := 0; i < hotData; i++ {
		a, err := generate("diagdom", serveDataN, base+500+int64(i))
		if err != nil {
			return err
		}
		op, err := dataOperator(a)
		if err != nil {
			return err
		}
		e.data = append(e.data, op)
	}
	rng := rand.New(rand.NewSource(seed ^ rhsSalt))
	warm := append(append([]*operator{}, e.hot...), e.data...)
	warm = append(warm, e.hot[0])
	for _, op := range warm {
		q := &request{op: op, rhs: matgen.RandomVector(op.n, rng)}
		e.client.send(q)
		if err := q.check(&r.tally); err != nil {
			return err
		}
		if q.err != nil || q.status != http.StatusOK {
			return fmt.Errorf("warm-up solve failed: HTTP %d %v", q.status, q.err)
		}
	}
	return nil
}

// stop shuts the server down, drains the manager and waits for both.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.transport.CloseIdleConnections()
	return errors.Join(err, e.m.Drain(ctx))
}

// rssMark samples the peak resident set once the at-th request of the
// run has completed, so the serve workload's memory is read after a fixed
// amount of served work rather than after however much a window managed:
// finished jobs keep their factors, so the footprint grows with every miss.
type rssMark struct {
	at   int64
	once sync.Once
	mb   float64
	err  error
}

func (m *rssMark) observe(n int64) {
	if m != nil && n == m.at {
		m.once.Do(func() { m.mb, m.err = peakRSSMB() })
	}
}

// window runs the closed-loop clients for d and returns every request sent
// and the time until the last reply. reqID counts the run's completed
// requests; rec, when set, records one span per request.
func (e *serveEnv) window(seed int64, pass int, d time.Duration, rec *recorder, reqID *atomic.Int64, mark *rssMark) ([]*request, time.Duration, error) {
	var wg sync.WaitGroup
	sent := make([][]*request, serveClients)
	errs := make([]error, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		rot := &rotation{
			rng:        rand.New(rand.NewSource(seed*31 + int64(pass*serveClients+c))),
			hot:        e.hot,
			data:       e.data,
			nextMiss:   seed*seedStride + 1000 + int64(pass*serveClients+c),
			missStride: 2 * serveClients,
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q, err := rot.next()
				if err != nil {
					errs[c] = err
					return
				}
				e.client.send(q)
				n := reqID.Add(1)
				mark.observe(n)
				rec.add("service", "POST /v1/solve "+kindNames[q.kind], 0, int(n), q.start, q.start.Add(q.dur))
				sent[c] = append(sent[c], q)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []*request
	for _, s := range sent {
		all = append(all, s...)
	}
	return all, elapsed, errors.Join(errs...)
}

// latencies returns the milliseconds of the successful requests of kind k.
func latencies(qs []*request, k kind) []float64 {
	var ms []float64
	for _, q := range qs {
		if q.kind == k && q.err == nil && q.status == http.StatusOK {
			ms = append(ms, q.dur.Seconds()*1e3)
		}
	}
	return ms
}

func completed(qs []*request) int {
	n := 0
	for _, q := range qs {
		if q.err == nil && q.status == http.StatusOK {
			n++
		}
	}
	return n
}

func runServe(o options, r *report) error {
	r.header = append(r.header, fmt.Sprintf("luqr-serve defaults in process, %d closed-loop clients; diagdom N=%d (gen) and N=%d (data), nb=%d α=100 grid 2x2",
		serveClients, serveN, serveDataN, serveNB))
	var env *serveEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = startService(r, o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := o.window
	if o.trace {
		window /= 2
	}
	var reqID atomic.Int64
	before := env.m.MetricsSnapshot()
	mark := &rssMark{at: rssRequests}
	untraced, elapsed, err := env.window(o.seed, 0, window, nil, &reqID, mark)
	var traced []*request
	if err == nil && o.trace {
		traced, _, err = env.window(o.seed, 1, window, r.rec, &reqID, nil)
	}
	after := env.m.MetricsSnapshot()
	if serr := env.stop(); err != nil || serr != nil {
		return errors.Join(err, serr)
	}
	// Drop the stopped service, whose finished jobs keep their operators and
	// factors, so neither the checks nor the probes below run beside its heap.
	env.m = nil
	goruntime.GC()
	for _, q := range append(append([]*request{}, untraced...), traced...) {
		if err := q.check(&r.tally); err != nil {
			return err
		}
	}

	hits := latencies(untraced, kindHit)
	p50 := median(hits)
	rss, rssN := mark.mb, int(rssRequests)
	if mark.err != nil {
		return mark.err
	}
	if rss == 0 { // a short window ended first
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
		rssN = len(untraced)
	}
	reqPerS := float64(completed(untraced)) / elapsed.Seconds()
	r.addE2E("setup_s", median(setups), "s", len(setups))
	r.addE2E("op_ms_p50", p50, "ms", len(hits))
	r.addE2E("ops_per_s", reqPerS, "1/s", completed(untraced))
	r.addE2E("peak_rss_mb", rss, "MB", rssN)
	misses, data := latencies(untraced, kindMiss), latencies(untraced, kindData)
	r.addView("hit_ms_p50", p50, "ms", len(hits))
	r.addView("hit_ms_p90", quantile(hits, 0.9), "ms", len(hits))
	r.addView("miss_ms_p50", median(misses), "ms", len(misses))
	r.addView("data_ms_p50", median(data), "ms", len(data))
	r.addView("req_per_s", reqPerS, "1/s", completed(untraced))
	if !o.trace {
		return nil
	}
	return serveLayers(o, r, env, untraced, traced, before, after)
}

// serviceLayers are the service-side per-layer metrics of the serve
// workload; the factor workloads do not exercise the service and report 0.
type serviceLayers struct {
	decodeGen, decodeData, residual float64
	hitRate, evictions, meanBatch   float64
	rejected                        float64
	hitP90, missP50, dataP50        float64
	nHit, nMiss, nData, nDecode     int
}

func addServiceLayers(r *report, s *serviceLayers) {
	if s == nil {
		s = &serviceLayers{}
	}
	r.addLayer("service.decode_gen_ms", s.decodeGen, "ms", s.nDecode)
	r.addLayer("service.decode_data_ms", s.decodeData, "ms", s.nDecode)
	r.addLayer("service.residual_ms", s.residual, "ms", s.nHit)
	r.addLayer("service.hit_rate", s.hitRate, "ratio", 0)
	r.addLayer("service.evictions", s.evictions, "count", 0)
	r.addLayer("service.mean_batch", s.meanBatch, "count", 0)
	r.addLayer("service.rejected", s.rejected, "count", 0)
	r.addLayer("service.hit_ms_p90", s.hitP90, "ms", s.nHit)
	r.addLayer("service.miss_ms_p50", s.missP50, "ms", s.nMiss)
	r.addLayer("service.data_ms_p50", s.dataP50, "ms", s.nData)
}

func serveLayers(o options, r *report, env *serveEnv, untraced, traced []*request, before, after service.MetricsSnapshot) error {
	all := append(append([]*request{}, untraced...), traced...)
	jobs := float64(after.Jobs.Done - before.Jobs.Done)
	if jobs == 0 {
		return errors.New("serve: no factorization ran in the measured windows")
	}
	// Kernel and scheduler totals per factorization, from the service's own
	// per-job traces.
	k := kernelTotals{}
	for name, ks := range after.Kernels.Kernels {
		prev := before.Kernels.Kernels[name]
		k.add(name, float64(ks.TotalNS-prev.TotalNS)/1e9, ks.Flops-prev.Flops)
	}
	nj := int(jobs)
	addKernelLayers(r, k, nj)

	// One in-process factorization of a hot operator with the requests'
	// config gives the per-run numbers the service does not export.
	hot := env.hot[0]
	cfg := core.Config{Alg: core.LUQR, Variant: core.VarA1, NB: serveNB, IB: lapack.PanelIB(), Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 100}}
	b := matgen.RandomVector(serveN, rand.New(rand.NewSource(o.seed+1)))
	var post, two, one []float64
	var res *core.Result
	t0 := time.Now()
	for i := 0; i < 2*probeReps+1; i++ {
		var d time.Duration
		var err error
		if res, d, err = solve(r, nil, 0, hot.a, b, cfg); err != nil {
			return err
		}
		post = append(post, (d - res.Report.WallTime).Seconds())
		two = append(two, d.Seconds())
		c1 := cfg
		c1.Workers = 1
		if _, d, err = solve(r, nil, 0, hot.a, b, c1); err != nil {
			return err
		}
		one = append(one, d.Seconds())
	}
	r.rec.add("probe", "core.Run 2 and 1 workers", 0, 0, t0, time.Now())
	rep := res.Report
	r.addLayer("criteria.lu_steps", float64(rep.LUSteps), "count", 0)
	r.addLayer("criteria.qr_steps", float64(rep.QRSteps), "count", 0)
	r.addLayer("core.post_dag_s", median(post), "s", len(post))
	r.addLayer("core.refine_iters", float64(after.Precision.RefineIters-before.Precision.RefineIters)/jobs, "count", 0)
	r.addLayer("core.hpl3", median(r.tally.hpl3), "ratio", len(r.tally.hpl3))
	replay, err := probeReplay(r, res, hot.a, serveN, o.seed)
	if err != nil {
		return err
	}
	r.addLayer("tile.f32_epochs", float64(after.Precision.F32Epochs-before.Precision.F32Epochs)/jobs, "count", nj)
	r.addLayer("tile.conversions", float64(after.Precision.Conversions-before.Precision.Conversions)/jobs, "count", nj)
	r.addLayer("tile.conv_s", float64(after.Kernels.ConvNS-before.Kernels.ConvNS)/1e9/jobs, "s", nj)

	r.addLayer("runtime.tasks", float64(after.Kernels.Tasks-before.Kernels.Tasks)/jobs, "count", nj)
	r.addLayer("runtime.steals", float64(after.Sched.Steals-before.Sched.Steals)/jobs, "count", nj)
	r.addLayer("runtime.parks", float64(after.Sched.Parks-before.Sched.Parks)/jobs, "count", nj)
	span := float64(after.Kernels.SpanNS - before.Kernels.SpanNS)
	busy := float64(after.Kernels.BusyNS - before.Kernels.BusyNS)
	// The manager runs each factorization on core's default pool of
	// GOMAXPROCS workers.
	workers := float64(goruntime.GOMAXPROCS(0))
	r.addLayer("runtime.idle_s", (workers*span-busy)/1e9/jobs, "s", nj)
	r.addLayer("runtime.critical_path_s", float64(after.Kernels.CriticalPathNS-before.Kernels.CriticalPathNS)/1e9/jobs, "s", nj)
	probeDispatch(r)
	r.addLayer("runtime.scaling_eff", median(one)/(2*median(two)), "ratio", len(one))

	gen, err := probeGen(r, "diagdom", serveN, o.seed)
	if err != nil {
		return err
	}

	s := &serviceLayers{nDecode: 2*probeReps + 1}
	if s.decodeGen, err = probeDecode(r, env.hot[0]); err != nil {
		return err
	}
	if s.decodeData, err = probeDecode(r, env.data[0]); err != nil {
		return err
	}
	hits := latencies(untraced, kindHit)
	s.residual = median(hits) - (gen + replay + s.decodeGen)
	allHits := latencies(all, kindHit)
	s.hitP90, s.nHit = quantile(allHits, 0.9), len(allHits)
	dh, dm := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	s.hitRate = float64(dh) / float64(dh+dm)
	s.evictions = float64(after.Cache.Evictions - before.Cache.Evictions)
	if nb := after.Solve.Batches - before.Solve.Batches; nb > 0 {
		s.meanBatch = float64(after.Solve.BatchedRHS-before.Solve.BatchedRHS) / float64(nb)
	}
	s.rejected = float64(after.Queue.Rejected - before.Queue.Rejected)
	misses, data := latencies(all, kindMiss), latencies(all, kindData)
	s.missP50, s.nMiss = median(misses), len(misses)
	s.dataP50, s.nData = median(data), len(data)
	addServiceLayers(r, s)
	probeKernels(r, serveNB, cfg.IB)
	r.addLayer("bench.trace_overhead_pct", 100*(median(latencies(traced, kindHit))/median(hits)-1), "%", len(hits))

	sentMiss := 0
	for _, q := range all {
		if q.kind == kindMiss {
			sentMiss++
		}
	}
	want := 1 - float64(sentMiss)/float64(len(all))
	r.confirm(math.Abs(s.hitRate-want) < 0.02, "service.hit_rate %.3f matches the request mix's %.3f", s.hitRate, want)
	return nil
}

// probeDecode times encoding/json's decode of a recorded request body of
// op's kind into service.SolveRequest, in milliseconds.
func probeDecode(r *report, op *operator) (float64, error) {
	q := &request{op: op, rhs: matgen.RandomVector(op.n, rand.New(rand.NewSource(1)))}
	body, err := q.body()
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 2*probeReps+1; i++ {
		var req service.SolveRequest
		t0 := time.Now()
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, err
		}
		t1 := time.Now()
		r.rec.add("probe", "service.decode", 0, 0, t0, t1)
		ms = append(ms, t1.Sub(t0).Seconds()*1e3)
	}
	return median(ms), nil
}
