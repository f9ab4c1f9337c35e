package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadOptions configures RunLoad, the luqr-load client mode of luqr-bench.
type LoadOptions struct {
	// URL is the base address of a running luqr-serve, e.g.
	// "http://127.0.0.1:8090".
	URL string
	// Clients is the number of concurrent client goroutines. Default 4.
	Clients int
	// Requests is the total number of requests across all clients.
	// Default 64.
	Requests int
	// N and NB shape the generated problems. Defaults 480 and 40.
	N, NB int
	// Matrices is the number of distinct operators cycled through (distinct
	// seeds of the random generator) — it controls the attainable cache hit
	// rate. Default 4.
	Matrices int
	// Seed seeds the request mix and RHS generation.
	Seed int64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.N <= 0 {
		o.N = 480
	}
	if o.NB <= 0 {
		o.NB = 40
	}
	if o.Matrices <= 0 {
		o.Matrices = 4
	}
	return o
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Requests int
	Errors   int
	Rejected int // 429 responses (backpressure working as intended)
	Hits     int // solve responses served from the factorization cache
	Elapsed  time.Duration

	// Latencies per operation kind ("solve", "submit", "status"), sorted.
	Latencies map[string][]time.Duration
}

// Percentile returns the p-th percentile (0–100) of ds, which must be
// sorted. Zero when ds is empty.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(ds)-1))
	return ds[i]
}

// RunLoad drives a running luqr-serve with a mixed workload — roughly 60%
// synchronous solves (repeating operators so the factorization cache gets
// exercised), 20% async job submissions, 20% status/metrics polls — and
// reports per-operation latency percentiles to out. It returns an error
// (with the result) when any request failed: a transport error or a status
// other than the expected one and 429, which is backpressure, not failure.
func RunLoad(opts LoadOptions, out io.Writer) (*LoadResult, error) {
	opts = opts.withDefaults()
	client := &http.Client{Timeout: 5 * time.Minute}

	// Smoke the target first so a wrong URL fails fast.
	resp, err := client.Get(opts.URL + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("load: target unreachable: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: /healthz returned %s", resp.Status)
	}

	res := &LoadResult{Latencies: map[string][]time.Duration{}}
	var mu sync.Mutex
	record := func(kind string, d time.Duration, rejected, errored, hit bool) {
		mu.Lock()
		res.Requests++
		res.Latencies[kind] = append(res.Latencies[kind], d)
		if rejected {
			res.Rejected++
		}
		if errored {
			res.Errors++
		}
		if hit {
			res.Hits++
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	startAll := time.Now()
	var jobIDs sync.Map // known job IDs for status polls
	perClient := opts.Requests / opts.Clients
	extra := opts.Requests % opts.Clients
	for c := 0; c < opts.Clients; c++ {
		n := perClient
		if c < extra {
			n++
		}
		wg.Add(1)
		go func(id, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919))
			for i := 0; i < n; i++ {
				seed := int64(rng.Intn(opts.Matrices))
				body := map[string]any{
					"matrix": map[string]any{"n": opts.N, "gen": "random", "seed": seed},
					"config": map[string]any{"nb": opts.NB},
				}
				switch r := rng.Float64(); {
				case r < 0.6: // synchronous cached solve
					rhs := make([]float64, opts.N)
					for k := range rhs {
						rhs[k] = rng.NormFloat64()
					}
					body["rhs"] = rhs
					st, out, d := post(client, opts.URL+"/v1/solve", body)
					var sr solveResponse
					hit := st == http.StatusOK && json.Unmarshal(out, &sr) == nil && sr.CacheHit
					record("solve", d, st == http.StatusTooManyRequests,
						st != http.StatusOK && st != http.StatusTooManyRequests, hit)
				case r < 0.8: // async submission
					st, out, d := post(client, opts.URL+"/v1/jobs", body)
					if st == http.StatusAccepted {
						var jr submitResponse
						if json.Unmarshal(out, &jr) == nil {
							jobIDs.Store(jr.ID, struct{}{})
						}
					}
					record("submit", d, st == http.StatusTooManyRequests,
						st != http.StatusAccepted && st != http.StatusTooManyRequests, false)
				default: // status poll of a known job, or /metrics
					url := opts.URL + "/metrics"
					jobIDs.Range(func(k, _ any) bool {
						url = opts.URL + "/v1/jobs/" + k.(string)
						return false
					})
					t0 := time.Now()
					resp, err := client.Get(url)
					d := time.Since(t0)
					ok := err == nil
					if ok {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						ok = resp.StatusCode == http.StatusOK
					}
					record("status", d, false, !ok, false)
				}
			}
		}(c, n)
	}
	wg.Wait()
	res.Elapsed = time.Since(startAll)

	for _, ds := range res.Latencies {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	if out != nil {
		fmt.Fprintf(out, "luqr-load: %d requests, %d clients, n=%d nb=%d, %d operators, %.2fs\n",
			res.Requests, opts.Clients, opts.N, opts.NB, opts.Matrices, res.Elapsed.Seconds())
		fmt.Fprintf(out, "  errors=%d rejected(429)=%d cache_hits=%d\n", res.Errors, res.Rejected, res.Hits)
		kinds := make([]string, 0, len(res.Latencies))
		for k := range res.Latencies {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(out, "  %-8s %6s %10s %10s %10s %10s\n", "op", "count", "p50", "p90", "p99", "max")
		for _, k := range kinds {
			ds := res.Latencies[k]
			fmt.Fprintf(out, "  %-8s %6d %10s %10s %10s %10s\n", k, len(ds),
				Percentile(ds, 50).Round(time.Microsecond),
				Percentile(ds, 90).Round(time.Microsecond),
				Percentile(ds, 99).Round(time.Microsecond),
				ds[len(ds)-1].Round(time.Microsecond))
		}
	}
	if res.Errors > 0 {
		return res, fmt.Errorf("load: %d of %d requests failed", res.Errors, res.Requests)
	}
	return res, nil
}

// post sends one JSON request and returns (status, body, latency). A
// transport error reports status 0.
func post(client *http.Client, url string, body any) (int, []byte, time.Duration) {
	buf, _ := json.Marshal(body)
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	d := time.Since(t0)
	if err != nil {
		return 0, nil, d
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, d
}
