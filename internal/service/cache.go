package service

import (
	"container/list"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"

	"luqr/internal/core"
)

// digestKey derives the factorization-cache key: the full SHA-256 (64 hex
// chars) over the operator identity and every config field that affects the
// stored factors — including the inner block size ib (blocked kernels with
// different ib round differently) and, through the criterion string, the
// EFFECTIVE α the run used (explicit, learned, or default), so a job served
// under a learned α never collides with one pinned to a different value —
// and the effective kernel precision, since f32 and f64 runs of the same
// operator store different factors.
// Generator-specified matrices hash their (gen, n, seed) triple; explicit
// matrices hash the raw float64 bits. Workers and tracing are deliberately
// excluded — the runtime guarantees bit-identical factors for any worker
// count, so they must not split the cache.
//
// The full digest is used everywhere a key identifies a factorization:
// in-memory cache entries, job status views, and the on-disk factor store's
// filenames (which outlive the process, so truncation-induced collisions
// would silently serve one operator's factors for another). Display
// surfaces may shorten it with ShortDigest.
//
// An explicit matrix the decoder's memo shared (spec.prefix) hashes its
// entries once: later digests resume the SHA-256 state after them.
func digestKey(spec MatrixSpec, cfg core.Config, criterion string) string {
	var h hash.Hash
	switch {
	case spec.Gen != "":
		h = sha256.New()
		fmt.Fprintf(h, "gen:%s:%d:%d", spec.Gen, spec.N, spec.Seed)
	case spec.prefix != nil:
		h = spec.prefix.resume(spec)
	default:
		h = sha256.New()
		hashData(h, spec)
	}
	fmt.Fprintf(h, "|alg=%s nb=%d ib=%d grid=%dx%d crit=%s variant=%s scope=%d seed=%d",
		cfg.Alg, cfg.NB, cfg.IB, cfg.Grid.P, cfg.Grid.Q, criterion, cfg.Variant, cfg.Scope, cfg.Seed)
	// The digest carries the EFFECTIVE precision, appended only when non-f64:
	// pure-f64 keys keep their historical form (factor-store files written
	// before the knob existed stay addressable), while an auto or f32
	// factorization can never be served where f64 was asked, or vice versa.
	if p := cfg.EffectivePrecision(); p != core.PrecisionF64 {
		fmt.Fprintf(h, " prec=%s", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashData writes an explicit operator's part of the digest: "data:N:" and
// then each entry's bits, one little-endian word per entry, handed to the
// hash 4 KiB at a time rather than 8 bytes a call.
func hashData(h hash.Hash, spec MatrixSpec) {
	fmt.Fprintf(h, "data:%d:", spec.N)
	var buf [4096]byte
	for d := spec.Data; len(d) > 0; {
		k := min(len(d), len(buf)/8)
		for i, v := range d[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*k])
		d = d[k:]
	}
}

// dataPrefix holds the SHA-256 state after hashData of one remembered
// matrix.data array, computed by the first digest that needs it and
// resumed by every later one: the decoder's memo hands it out with the
// array, so requests repeating the array hash its entries once.
type dataPrefix struct {
	once  sync.Once
	state []byte
}

// resume returns a SHA-256 hash that has absorbed hashData(spec). The memo
// shares a prefix only among requests with byte-identical data, and parse
// digests only a request whose data holds N² entries, so every request
// that resumes it has the N the state was computed at. crypto/sha256's
// state round-trips exactly, so the digest is the one a fresh hash gives.
func (p *dataPrefix) resume(spec MatrixSpec) hash.Hash {
	p.once.Do(func() {
		h := sha256.New()
		hashData(h, spec)
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(err)
		}
		p.state = state
	})
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(p.state); err != nil {
		panic(err)
	}
	return h
}

// ShortDigest is the documented display form of a cache key: the first 12
// hex characters, for logs and human-facing views only. Never use it to
// address a factorization — only the full digest is collision-safe.
func ShortDigest(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// entry is one cached factorization. ready closes when the creator finishes
// (res or err set); consumers wait on it, never re-factor. The batching
// state collects right-hand sides that arrive while a solve pass is in
// flight, so they share one block back-substitution.
type entry struct {
	key   string
	ready chan struct{}
	res   *core.Result
	err   error

	bmu     sync.Mutex
	pending []pendingSolve
	solving bool
}

type pendingSolve struct {
	b  []float64
	ch chan solveOut
}

type solveOut struct {
	x     []float64
	batch int
	err   error
}

// complete publishes the factorization (or its error) and releases every
// waiter. Called exactly once, by the creator.
func (e *entry) complete(res *core.Result, err error) {
	e.res = res
	e.err = err
	close(e.ready)
}

// solve runs b through the cached factorization, batching with any other
// right-hand sides queued against it. Returns the solution and the size of
// the batch it rode in. Only valid after ready has closed with err == nil.
func (e *entry) solve(b []float64, met *Metrics) ([]float64, int, error) {
	ps := pendingSolve{b: b, ch: make(chan solveOut, 1)}
	e.bmu.Lock()
	e.pending = append(e.pending, ps)
	if !e.solving {
		e.solving = true
		go e.drainBatches(met)
	}
	e.bmu.Unlock()
	out := <-ps.ch
	return out.x, out.batch, out.err
}

// drainBatches is the per-entry solve leader: it repeatedly claims the
// whole pending list and solves it in one core.Result.SolveBatch pass (one
// transformation replay + one block back-substitution for the entire
// batch), until no more right-hand sides are waiting.
func (e *entry) drainBatches(met *Metrics) {
	for {
		e.bmu.Lock()
		batch := e.pending
		e.pending = nil
		if len(batch) == 0 {
			e.solving = false
			e.bmu.Unlock()
			return
		}
		e.bmu.Unlock()

		bs := make([][]float64, len(batch))
		for i := range batch {
			bs[i] = batch[i].b
		}
		xs, iters, err := e.res.SolveBatchRefined(bs)
		if met != nil {
			met.SolveBatches.Add(1)
			met.SolveBatchedRHS.Add(int64(len(batch)))
			met.foldMaxBatch(int64(len(batch)))
			met.RefineIters.Add(int64(iters))
		}
		for i := range batch {
			if err != nil {
				batch[i].ch <- solveOut{err: err}
			} else {
				batch[i].ch <- solveOut{x: xs[i], batch: len(batch)}
			}
		}
	}
}

// cache is the LRU factorization cache, optionally backed by a disk store.
// Only completed entries are evicted; in-flight factorizations always
// survive until their creator completes them. Recency is tracked with a
// container/list so lookups touch in O(1) instead of scanning an order
// slice.
type cache struct {
	mu      sync.Mutex
	cap     int
	met     *Metrics
	entries map[string]*list.Element // key → element; element value is *entry
	lru     *list.List               // front = least recently used

	store  *store // nil when persistence is disabled
	spills sync.WaitGroup
}

func newCache(capacity int, met *Metrics) *cache {
	return &cache{
		cap:     capacity,
		met:     met,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// lookup returns the entry for key, marking it recently used.
func (c *cache) lookup(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToBack(el)
	return el.Value.(*entry), true
}

// getOrCreate returns the entry for key, creating an in-flight one (ready
// open) when absent; created reports whether this caller must factor and
// complete it. A freshly created entry is first offered a lazy warm load
// from the disk store (when one is configured): on success the entry
// completes immediately and created is false — the caller treats it exactly
// like an in-memory hit. Creation evicts the least-recently-used completed
// entry beyond capacity.
func (c *cache) getOrCreate(key string) (e *entry, created bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToBack(el)
		c.mu.Unlock()
		return el.Value.(*entry), false
	}
	e = &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushBack(e)
	for len(c.entries) > c.cap {
		if !c.evictOldestDone() {
			break // every older entry is in flight; allow transient over-cap
		}
	}
	c.mu.Unlock()

	// Warm load outside the cache lock: disk I/O and gob decoding must not
	// stall unrelated lookups. Concurrent callers for this key share the
	// in-flight entry and wait on ready either way.
	if c.store != nil {
		if res, ok := c.store.loadResult(key); ok {
			e.complete(res, nil)
			return e, false
		}
	}
	return e, true
}

// evictOldestDone removes the least-recently-used completed entry,
// reporting whether one was found. Caller holds c.mu.
func (c *cache) evictOldestDone() bool {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		select {
		case <-e.ready:
			c.lru.Remove(el)
			delete(c.entries, e.key)
			if c.met != nil {
				c.met.CacheEvictions.Add(1)
			}
			return true
		default:
		}
	}
	return false
}

// remove drops a (typically failed) entry.
func (c *cache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	c.lru.Remove(el)
	delete(c.entries, key)
}

// spill asynchronously persists a freshly computed factorization to the
// disk store. A no-op without a store. The spill WaitGroup lets Drain flush
// in-flight spills before the process exits.
func (c *cache) spill(key string, res *core.Result) {
	if c.store == nil || res == nil {
		return
	}
	c.spills.Add(1)
	go func() {
		defer c.spills.Done()
		c.store.spill(key, res)
	}()
}

// waitSpills blocks until every in-flight spill has landed (or failed).
func (c *cache) waitSpills() { c.spills.Wait() }

// len reports the number of cached entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
