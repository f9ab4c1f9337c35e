// Package runtime is the dataflow task engine the hybrid solver runs on — a
// pure-Go stand-in for the PaRSEC runtime of the paper (§IV).
//
// Tasks declare the data handles they read and write; the engine derives the
// read-after-write, write-after-read and write-after-write dependencies
// automatically from the submission order, exactly as a sequential-task-flow
// runtime does, and executes ready tasks on a pool of workers.
//
// Scheduling is work-stealing and locality-aware. Each worker owns a deque
// of ready tasks, which its owner and thieves both drain oldest first; a
// shared priority lane, polled before the deques, carries the panel-path
// tasks whose
// progress bounds the whole factorization (the lookahead pipeline of §IV);
// and a newly ready task is pushed to the deque of the worker that produced
// the previous version of the tile it will write, so a tile's update chain
// stays in one worker's cache. Workers park individually and are woken one
// at a time, targeted at the worker whose deque just received work — there
// is no global ready-heap, no engine-wide dispatch lock, and no broadcast
// wakeup storm on task completion.
//
// The paper extends PaRSEC's static parameterized task graphs with dynamic
// selection tasks (Backup Panel / Propagate, Fig. 1) so the LU and QR
// subgraphs of a step can be chosen at run time. This engine supports the
// same pattern through dynamic unfolding: a task's Then callback runs after
// its kernel and may submit further tasks — the hybrid algorithm's decision
// task evaluates the robustness criterion there and materializes either the
// LU or the QR subgraph of the step. Submission (and with it dependency
// derivation) stays serialized under one mutex, so the task graph and every
// numerical result are independent of the number of workers and of
// scheduling; only timing and the dispatch route of each task vary.
//
// For the distributed-memory reproduction the engine also performs
// owner-computes accounting: each task carries the rank of the node it would
// run on, and the engine records, per dependency edge that crosses nodes,
// one message per (version, destination-node) pair — the same dedup a
// runtime's broadcast tree gives. The recorded trace feeds the sim package's
// discrete-event replay.
package runtime

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LanePriority is the threshold of the shared priority lane: a task
// submitted with Priority ≥ LanePriority is dispatched from a single
// priority-ordered queue that every worker polls before its own deque, so
// such tasks always outrun deque work regardless of which worker's deque
// the deque work sits in. The solver maps its panel path (backup, trial
// factorization, decision, restore, eliminations) above this threshold and
// its trailing updates below it. Tasks below the threshold obey deque
// order (oldest first), not priority order.
const LanePriority = 1 << 26

// Handle identifies one datum (typically a tile) tracked by the engine.
type Handle struct {
	id    int
	name  string
	bytes int

	// Dependency state, guarded by the engine mutex (only Submit touches
	// it, and Submit is serialized).
	lastWriter *task
	readers    []*task
	writerNode int // node holding the current version (−1: home)
	home       int // node owning the datum (block-cyclic owner)
	// sentTo lists the nodes already holding the current version (the
	// broadcast-tree dedup). It is a small reused slice rather than a map so
	// that each new version costs zero allocations: a version reaches a
	// handful of nodes at most, and a linear scan is faster than hashing.
	sentTo  []int
	version int
	// observe is the observer Observe left for the current version, taken
	// by the next task submitted with an access to the handle.
	observe func()
}

// sentToContains reports whether node already received the current version.
func (h *Handle) sentToContains(node int) bool {
	for _, n := range h.sentTo {
		if n == node {
			return true
		}
	}
	return false
}

// Name returns the debug name given at creation.
func (h *Handle) Name() string { return h.name }

// Access describes one handle access of a task.
type Access struct {
	H     *Handle
	Write bool
}

// R declares a read access.
func R(h *Handle) Access { return Access{H: h} }

// W declares a write (or read-write — in-place kernels are writes) access.
func W(h *Handle) Access { return Access{H: h, Write: true} }

// Message records one inter-node transfer implied by a dependency edge.
type Message struct {
	From, To int
	Bytes    int
}

// DispatchKind records how the executing worker obtained a task.
type DispatchKind uint8

const (
	// DispatchLane: popped from the shared priority lane (panel path and
	// ready-at-submit injections).
	DispatchLane DispatchKind = iota
	// DispatchLocal: popped from the worker's own deque (the locality hit —
	// the task's input tiles were produced by this worker).
	DispatchLocal
	// DispatchSteal: stolen FIFO from another worker's deque.
	DispatchSteal
)

// String names the dispatch route for traces and tables.
func (d DispatchKind) String() string {
	switch d {
	case DispatchLane:
		return "lane"
	case DispatchLocal:
		return "local"
	case DispatchSteal:
		return "steal"
	}
	return "?"
}

// TraceTask is the execution-trace record of one task, consumed by the
// discrete-event simulator.
type TraceTask struct {
	ID       int
	Name     string
	Kernel   string
	Node     int
	Flops    float64
	Priority int
	Deps     []int
	Recv     []Message
	// ExtraComm records communication the task performs internally as a
	// synchronous phase (pivot-search exchanges, criterion all-reduces):
	// the simulator charges latency + bytes for each, serially.
	ExtraComm []Message

	// Measured execution record, filled in by the executing worker. The
	// fields live in the TraceTask allocated at Submit, so recording them
	// costs zero allocations on the execution path.
	//
	// BeginNS/EndNS are wall-clock nanoseconds since the engine started
	// (monotonic). EndNS covers Run and Then: the full occupancy of the
	// worker, so dynamic-unfolding overhead is charged to the decision task
	// that pays it.
	BeginNS int64
	EndNS   int64
	// Worker is the ID (0-based) of the worker that executed the task.
	Worker int
	// Dispatch is the route the task took to its worker: the shared
	// priority lane, the worker's own deque (a locality hit), or a steal.
	Dispatch DispatchKind
	// QueueDepth is the number of ready tasks left across the priority lane
	// and all worker deques at the moment this task was dispatched — a
	// sample of scheduler pressure.
	QueueDepth int
	// ConvNS is the portion of the task's execution spent in precision
	// conversions (float32 tile promotions/demotions), charged by the task
	// body through ChargeConv. It lets the breakdown experiment attribute
	// conversion overhead separately from kernel arithmetic.
	ConvNS int64
}

// ChargeConv adds ns nanoseconds of precision-conversion time to the task's
// record. Safe on a nil receiver, so task bodies may charge unconditionally.
func (t *TraceTask) ChargeConv(ns int64) {
	if t != nil {
		t.ConvNS += ns
	}
}

// Duration returns the measured execution time of the task.
func (t *TraceTask) Duration() time.Duration {
	return time.Duration(t.EndNS - t.BeginNS)
}

// TaskSpec describes a task to submit.
type TaskSpec struct {
	Name     string  // debug / DOT label
	Kernel   string  // kernel family, e.g. "GEMM" (for the trace)
	Node     int     // owner-computes placement rank
	Flops    float64 // operation count (for the trace / simulator)
	Priority int     // ≥ LanePriority: shared priority lane; below: deques
	Accesses []Access
	// ExtraComm declares internal synchronous communication phases (see
	// TraceTask.ExtraComm); only meaningful when tracing.
	ExtraComm []Message
	Run       func() // the kernel body (may be nil for pure control tasks)
	// RunTraced, when set, is called instead of Run with the task's trace
	// record (nil when tracing is off). Bodies that want to charge
	// conversion time via TraceTask.ChargeConv use this form; everything
	// else keeps the plain Run.
	RunTraced func(tr *TraceTask)
	// Then runs on the worker right after Run, while the task is still
	// considered pending, and may submit further tasks: this is the dynamic
	// unfolding hook. It must not block on the engine.
	Then func(e *Engine)
}

type task struct {
	id   int
	spec TaskSpec

	// nDeps is the count of unresolved dependencies plus one submission
	// guard. The guard (taken at creation, dropped at the end of Submit)
	// keeps a concurrently completing predecessor from seeing a transient
	// zero while Submit is still attaching the remaining edges; whoever
	// drops the count to zero — the final predecessor or Submit itself —
	// releases the task.
	nDeps atomic.Int32

	// mu guards done and succs: Submit attaches successor edges while
	// worker-side completion detaches the list, and the two race once
	// dispatch no longer funnels through the engine mutex. doneA mirrors
	// done, set after it under mu: a Submit that reads doneA == true may
	// skip the lock entirely (the edge is trivially satisfied), which is
	// the common case for dynamically unfolded subgraphs whose
	// predecessors ran long before submission.
	mu    sync.Mutex
	done  bool
	doneA atomic.Bool
	succs []*task

	// affinity is the submission-time last writer of the task's first
	// written handle — the producer of the previous version of the tile
	// this task will overwrite. When the task becomes ready it is pushed to
	// that producer's deque (see release), so a tile's TRSM→GEMM→GEMM
	// version chain stays in the cache of one worker. Nil when the task
	// writes nothing or writes a fresh handle.
	affinity *task
	// execWorker is the worker that dispatched the task, recorded before
	// Run. Readers (successor releases) are ordered after this task's
	// completion, so the plain write is safe.
	execWorker int32

	trace *TraceTask
	// observers run before the body: the ones this task took from its
	// handles at Submit (Observe).
	observers []func()
	// loop marks a Parallel runner: it is no part of the graph, so it adds
	// nothing to the dispatch counters (and it never has a trace record).
	loop bool
}

// worker is the per-worker scheduler state. The counters are written only by
// the owning worker (or, for remoteReleases, by the releasing worker into
// its own struct) but read by SchedCounters at any time, hence atomic.
type worker struct {
	dq deque
	// wake carries at most one parking token: a waker pops the worker from
	// the idle set and sends here; the worker consumes exactly one token
	// per removal it did not perform itself.
	wake chan struct{}

	laneHits       atomic.Int64 // dispatches from the shared priority lane
	localHits      atomic.Int64 // dispatches from the own deque
	steals         atomic.Int64 // dispatches stolen from another deque
	remoteReleases atomic.Int64 // successors pushed to another worker's deque
	parks          atomic.Int64 // times this worker went to sleep
}

// lane is the shared priority queue for panel-path tasks and ready-at-submit
// injections. The atomic length counter keeps the common dispatch path (lane
// empty) down to one load, with no lock traffic.
type lane struct {
	mu sync.Mutex
	q  laneHeap
	n  atomic.Int64
}

func (l *lane) push(t *task) {
	l.mu.Lock()
	heap.Push(&l.q, t)
	l.n.Add(1)
	l.mu.Unlock()
}

func (l *lane) tryPop() *task {
	if l.n.Load() == 0 {
		return nil
	}
	l.mu.Lock()
	if len(l.q) == 0 {
		l.mu.Unlock()
		return nil
	}
	t := heap.Pop(&l.q).(*task)
	l.n.Add(-1)
	l.mu.Unlock()
	return t
}

// laneHeap is a max-heap on (Priority, −id): higher priority first, FIFO in
// submission order among equals.
type laneHeap []*task

func (q laneHeap) Len() int { return len(q) }
func (q laneHeap) Less(i, j int) bool {
	if q[i].spec.Priority != q[j].spec.Priority {
		return q[i].spec.Priority > q[j].spec.Priority
	}
	return q[i].id < q[j].id
}
func (q laneHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *laneHeap) Push(x any)   { *q = append(*q, x.(*task)) }
func (q *laneHeap) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}

// idleSet tracks parked workers as a stack: wakers pop the most recently
// parked worker (warmest stack), or a specifically preferred one when the
// work they just pushed has cache affinity for it.
type idleSet struct {
	mu  sync.Mutex
	n   atomic.Int64
	ids []int // preallocated to the worker count: parking never allocates
}

func (s *idleSet) push(id int) {
	s.mu.Lock()
	s.ids = append(s.ids, id)
	s.n.Add(1)
	s.mu.Unlock()
}

// remove takes id out of the set; it reports false when a waker already
// popped it (in which case a wake token is in flight for it).
func (s *idleSet) remove(id int) bool {
	s.mu.Lock()
	for i, v := range s.ids {
		if v == id {
			s.ids[i] = s.ids[len(s.ids)-1]
			s.ids = s.ids[:len(s.ids)-1]
			s.n.Add(-1)
			s.mu.Unlock()
			return true
		}
	}
	s.mu.Unlock()
	return false
}

// pop removes and returns a parked worker: prefer if it is parked, the most
// recently parked otherwise. The fast path (nobody parked) is one atomic
// load.
func (s *idleSet) pop(prefer int) (int, bool) {
	if s.n.Load() == 0 {
		return 0, false
	}
	s.mu.Lock()
	if len(s.ids) == 0 {
		s.mu.Unlock()
		return 0, false
	}
	at := len(s.ids) - 1
	if prefer >= 0 {
		for i, v := range s.ids {
			if v == prefer {
				at = i
				break
			}
		}
	}
	id := s.ids[at]
	s.ids[at] = s.ids[len(s.ids)-1]
	s.ids = s.ids[:len(s.ids)-1]
	s.n.Add(-1)
	s.mu.Unlock()
	return id, true
}

// Engine executes a dynamically unfolding task graph.
type Engine struct {
	// mu serializes Submit and NewHandle: handle dependency state, task and
	// handle ids, and the trace log. Dispatch, execution, completion and
	// successor release never take it.
	mu      sync.Mutex
	nextID  int // task ids, in submission order
	nextHdl int // handle ids
	trace   []*TraceTask
	tracing bool
	// depScratch is the per-Submit predecessor dedup set, reused across
	// submissions (guarded by mu) so edge dedup costs no allocation.
	depScratch []*task

	lane lane
	ws   []*worker
	idle idleSet

	pending  atomic.Int64 // submitted but not finished
	closed   atomic.Bool
	waitMu   sync.Mutex
	waitCond *sync.Cond

	start time.Time // timestamp origin for BeginNS/EndNS
	wg    sync.WaitGroup
}

// Config configures a new engine.
type Config struct {
	Workers int  // number of worker goroutines (≥ 1)
	Trace   bool // record a TraceTask per task
}

// NewEngine starts an engine with the given number of workers. Callers must
// Close it when done.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("runtime: need at least one worker, got %d", cfg.Workers))
	}
	e := &Engine{tracing: cfg.Trace, start: time.Now()}
	e.waitCond = sync.NewCond(&e.waitMu)
	e.lane.q = make(laneHeap, 0, dequeInitCap)
	e.idle.ids = make([]int, 0, cfg.Workers)
	e.ws = make([]*worker, cfg.Workers)
	for i := range e.ws {
		e.ws[i] = &worker{wake: make(chan struct{}, 1)}
		e.ws[i].dq.init()
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker(i)
	}
	return e
}

// Workers returns the size of the worker pool.
func (e *Engine) Workers() int { return len(e.ws) }

// sinceStart returns nanoseconds since the engine started (monotonic).
func (e *Engine) sinceStart() int64 { return int64(time.Since(e.start)) }

// NewHandle registers a datum of the given size owned by node home.
func (e *Engine) NewHandle(name string, bytes, home int) *Handle {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := &Handle{id: e.nextHdl, name: name, bytes: bytes, home: home, writerNode: home}
	e.nextHdl++
	return h
}

// Observe arranges for fn to see h as it stands now, after every task
// submitted so far that writes it: the next task submitted with an access
// to h runs fn before its body, and no later writer of h can run before
// that task has finished. fn adds no task and no dependency, and it runs
// only if such a task is submitted. A later Observe on h, before any task
// has taken fn, replaces it: both would see the same version. fn must only
// read h.
func (e *Engine) Observe(h *Handle, fn func()) {
	e.mu.Lock()
	h.observe = fn
	e.mu.Unlock()
}

// Submit adds a task. Dependencies on previously submitted tasks are derived
// from the declared accesses. Submit may be called from Then callbacks.
func (e *Engine) Submit(spec TaskSpec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		panic("runtime: Submit after Close")
	}
	t := &task{id: e.nextID, spec: spec}
	t.nDeps.Store(1) // submission guard, dropped at the end of Submit
	e.nextID++
	e.pending.Add(1)

	var tr *TraceTask
	if e.tracing {
		tr = &TraceTask{ID: t.id, Name: spec.Name, Kernel: spec.Kernel, Node: spec.Node, Flops: spec.Flops, Priority: spec.Priority, ExtraComm: spec.ExtraComm}
		t.trace = tr
		e.trace = append(e.trace, tr)
	}

	// Dedup set: a task touching the same handle several times (read+write,
	// stacked-rows access lists) or several handles with the same last
	// writer must record each predecessor once — duplicate edges would
	// double-draw in DOT, double-count in the simulator, and bloat succs.
	// The nDeps/decrement bookkeeping stays balanced because the succs
	// append and the nDeps increment are skipped together. The scratch
	// slice is reused across Submits, so the dedup costs no allocation.
	e.depScratch = e.depScratch[:0]
	dep := func(p *task) {
		if p == nil {
			return
		}
		for _, q := range e.depScratch {
			if q == p {
				return
			}
		}
		e.depScratch = append(e.depScratch, p)
		// Record the edge in the trace even when the predecessor has
		// already finished: dynamically unfolded subgraphs submit after
		// their predecessors ran, but the logical dependency still holds
		// and the simulator must see it.
		if tr != nil {
			tr.Deps = append(tr.Deps, p.id)
		}
		// Lock-free fast path: a predecessor observed done can never gain
		// the edge back, so the dependency is trivially satisfied.
		if p.doneA.Load() {
			return
		}
		// The predecessor may be completing on a worker right now; its mu
		// arbitrates between "edge attached before completion" (the
		// completer will decrement) and "already done" (no edge, the
		// dependency is trivially satisfied).
		p.mu.Lock()
		if !p.done {
			p.succs = append(p.succs, t)
			t.nDeps.Add(1)
		}
		p.mu.Unlock()
	}

	for ai, a := range spec.Accesses {
		h := a.H
		// RAW (and WAW for writes): depend on the last writer.
		dep(h.lastWriter)
		if a.Write && t.affinity == nil && h.lastWriter != t {
			// Cache-affinity hint: the producer of the previous version of
			// the first tile this task overwrites (see task.affinity).
			t.affinity = h.lastWriter
		}
		// Record data movement for this version once per destination. The
		// duplicate-handle dedup scans the access-list prefix instead of
		// keeping a per-Submit map: access lists are short, and the scan
		// (needed only when tracing) costs no allocation.
		if tr != nil && !accessSeen(spec.Accesses, ai) {
			if h.lastWriter != nil {
				if h.writerNode != spec.Node && len(h.sentTo) > 0 && !h.sentToContains(spec.Node) {
					tr.Recv = append(tr.Recv, Message{From: h.writerNode, To: spec.Node, Bytes: h.bytes})
					h.sentTo = append(h.sentTo, spec.Node)
				}
			} else if h.home != spec.Node && !h.sentToContains(spec.Node) {
				// Initial version lives at the home node.
				tr.Recv = append(tr.Recv, Message{From: h.home, To: spec.Node, Bytes: h.bytes})
				h.sentTo = append(h.sentTo, spec.Node)
			}
		}
		if a.Write {
			// WAR: depend on every reader of the current version.
			for _, r := range h.readers {
				if r != t {
					dep(r)
				}
			}
		}
	}
	// Second pass: update handle states (kept separate so a task that
	// accesses a handle twice does not depend on itself).
	for _, a := range spec.Accesses {
		h := a.H
		if h.observe != nil {
			t.observers = append(t.observers, h.observe)
			h.observe = nil
		}
		if a.Write {
			h.lastWriter = t
			h.readers = h.readers[:0]
			h.version++
			h.writerNode = spec.Node
			h.sentTo = append(h.sentTo[:0], spec.Node)
		} else if h.lastWriter != t {
			// Dedup: a task reading the same handle twice is one reader. A
			// duplicate could only have been appended by this same Submit,
			// so checking the tail suffices. A task that already wrote the
			// handle is its last writer — recording it as a reader of its
			// own version would be redundant.
			if n := len(h.readers); n == 0 || h.readers[n-1] != t {
				h.readers = append(h.readers, t)
			}
		}
	}

	// Drop the submission guard. A task ready at submit is injected into
	// the shared lane regardless of priority — the submitter is not a
	// worker (or is a worker unfolding a new subgraph), so there is no
	// meaningful deque to push to, and lane injection preserves
	// priority-then-submission order among simultaneously ready roots.
	if t.nDeps.Add(-1) == 0 {
		e.lane.push(t)
		e.wake(-1)
	}
}

// accessSeen reports whether the handle of accs[idx] already appears earlier
// in the access list — the duplicate-access dedup for trace recording.
func accessSeen(accs []Access, idx int) bool {
	h := accs[idx].H
	for q := 0; q < idx; q++ {
		if accs[q].H == h {
			return true
		}
	}
	return false
}

// wake unparks one worker, preferring the given id (the worker whose deque
// just received work), if anyone is parked. The no-sleeper fast path is a
// single atomic load.
func (e *Engine) wake(prefer int) {
	if id, ok := e.idle.pop(prefer); ok {
		select {
		case e.ws[id].wake <- struct{}{}:
		default:
		}
	}
}

// wakeID unparks worker id specifically, reporting false when it is not
// parked (no token is sent; the worker is running and will reach its own
// deque on its next poll).
func (e *Engine) wakeID(id int) bool {
	if e.idle.n.Load() == 0 || !e.idle.remove(id) {
		return false
	}
	select {
	case e.ws[id].wake <- struct{}{}:
	default:
	}
	return true
}

// release routes a newly ready task to its queue and wakes a worker to run
// it. byWorker is the worker whose task completion performed the release
// (ready-at-submit tasks take the lane-injection path in Submit instead).
func (e *Engine) release(s *task, byWorker int) {
	if s.spec.Priority >= LanePriority {
		e.lane.push(s)
		e.wake(-1)
		return
	}
	// Locality-aware placement: prefer the deque of the worker that
	// produced the previous version of the tile this task writes — the
	// worker whose cache holds the task's write target — falling back to
	// the releasing worker (which just wrote one of the task's inputs).
	target := byWorker
	if s.affinity != nil {
		// The affinity predecessor necessarily completed before s became
		// ready, so its execWorker is set and stable.
		target = int(s.affinity.execWorker)
	}
	e.ws[target].dq.push(s)
	if target != byWorker {
		e.ws[byWorker].remoteReleases.Add(1)
		// Wake the target itself if it is parked; a busy target will drain
		// its own deque, and waking some other sleeper would just steal the
		// task straight off the cache it was placed for. Summon a thief
		// only when the target has more queued than it can start next.
		if !e.wakeID(target) && e.ws[target].dq.n.Load() > 1 {
			e.wake(-1)
		}
		return
	}
	// Pushed onto our own deque: we will pop it ourselves shortly, so only
	// summon help when there is surplus beyond that — waking a thief for a
	// single-task deque would just migrate the chain off its cache.
	if e.ws[byWorker].dq.n.Load() > 1 {
		e.wake(-1)
	}
}

// poll finds the next task for worker id: the shared priority lane first
// (the panel path must outrun everything), then the worker's own deque
// (oldest first — wavefront order), then a steal sweep over the other
// deques in ring order, which also takes the oldest task.
func (e *Engine) poll(id int) (*task, DispatchKind) {
	if t := e.lane.tryPop(); t != nil {
		return t, DispatchLane
	}
	if t := e.ws[id].dq.popHead(); t != nil {
		return t, DispatchLocal
	}
	nw := len(e.ws)
	for i := 1; i < nw; i++ {
		v := e.ws[(id+i)%nw]
		if t := v.dq.popHead(); t != nil {
			return t, DispatchSteal
		}
	}
	return nil, 0
}

// workAvailable reports whether any queue holds a ready task — the parking
// re-check that closes the race between a failed poll and idle registration.
func (e *Engine) workAvailable() bool {
	if e.lane.n.Load() > 0 {
		return true
	}
	for _, w := range e.ws {
		if w.dq.n.Load() > 0 {
			return true
		}
	}
	return false
}

// park blocks worker id until a waker hands it a token or work shows up.
func (e *Engine) park(id int) {
	w := e.ws[id]
	// Drain a stale token (Close broadcasts unconditionally) so the
	// at-most-one-token invariant holds for this parking cycle.
	select {
	case <-w.wake:
	default:
	}
	e.idle.push(id)
	// Re-check after registering: a producer that pushed work before we
	// appeared in the idle set could not have woken us; its push is visible
	// to us now (idle set and queue counters synchronize through their
	// locks), so one of the two sides always acts.
	if e.workAvailable() || e.closed.Load() {
		if !e.idle.remove(id) {
			// A waker claimed us concurrently; consume its token.
			<-w.wake
		}
		return
	}
	w.parks.Add(1)
	<-w.wake
}

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	for {
		t, src := e.poll(id)
		if t == nil {
			if e.closed.Load() {
				return
			}
			e.park(id)
			continue
		}
		e.execute(t, id, src)
	}
}

// queuedLen samples the total number of ready tasks across the lane and all
// deques (trace-only bookkeeping).
func (e *Engine) queuedLen() int {
	n := int(e.lane.n.Load())
	for _, w := range e.ws {
		n += int(w.dq.n.Load())
	}
	return n
}

// execute runs one dispatched task and completes it.
func (e *Engine) execute(t *task, id int, src DispatchKind) {
	w := e.ws[id]
	t.execWorker = int32(id)
	if !t.loop {
		switch src {
		case DispatchLane:
			w.laneHits.Add(1)
		case DispatchLocal:
			w.localHits.Add(1)
		case DispatchSteal:
			w.steals.Add(1)
		}
	}
	if t.trace != nil {
		// All measurement writes go into the TraceTask preallocated at
		// Submit; with tracing off this is a single nil check, so the
		// execution hot path stays allocation- and instrumentation-free.
		t.trace.Worker = id
		t.trace.Dispatch = src
		t.trace.QueueDepth = e.queuedLen()
		t.trace.BeginNS = e.sinceStart()
	}
	for _, fn := range t.observers {
		fn()
	}
	if t.spec.RunTraced != nil {
		t.spec.RunTraced(t.trace)
	} else if t.spec.Run != nil {
		t.spec.Run()
	}
	if t.spec.Then != nil {
		t.spec.Then(e)
	}
	if t.trace != nil {
		t.trace.EndNS = e.sinceStart()
	}

	// Completion: close the task against new successor edges, then release
	// every successor whose last unresolved dependency this was. None of
	// this touches the engine mutex.
	t.mu.Lock()
	t.done = true
	t.doneA.Store(true)
	succs := t.succs
	t.succs = nil
	t.mu.Unlock()
	for _, s := range succs {
		if s.nDeps.Add(-1) == 0 {
			e.release(s, id)
		}
	}
	if e.pending.Add(-1) == 0 {
		e.waitMu.Lock()
		e.waitCond.Broadcast()
		e.waitMu.Unlock()
	}
}

// Parallel calls body(0), …, body(n−1) on the engine's workers and returns
// once every call has finished. The calls are loop iterations, not graph
// tasks: they declare no accesses, leave no trace record and add nothing to
// SchedCounters' dispatch counts, so a caller can run the data-parallel work
// around its graph (filling the operands in before it, reducing the results
// after it) on the same workers without that work showing up as part of the
// graph. At most Workers runners take the iterations in index order, one at
// a time, so the caller bounds the cores it uses by the worker count and
// puts its longest iteration first. Parallel must not be called from a task
// body, which would wait on the workers it occupies.
func (e *Engine) Parallel(n int, body func(i int)) {
	if e.closed.Load() {
		panic("runtime: Parallel after Close")
	}
	var next atomic.Int64
	var done sync.WaitGroup
	run := func() {
		defer done.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(i)
		}
	}
	runners := min(n, len(e.ws))
	done.Add(runners)
	for r := 0; r < runners; r++ {
		e.pending.Add(1)
		e.lane.push(&task{spec: TaskSpec{Run: run}, loop: true})
		e.wake(-1)
	}
	done.Wait()
}

// Wait blocks until every submitted task (including tasks submitted from
// Then callbacks) has finished.
func (e *Engine) Wait() {
	e.waitMu.Lock()
	defer e.waitMu.Unlock()
	for e.pending.Load() > 0 {
		e.waitCond.Wait()
	}
}

// Close shuts the workers down. Pending tasks are drained first.
func (e *Engine) Close() {
	e.Wait()
	e.closed.Store(true)
	for _, w := range e.ws {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	e.wg.Wait()
}

// Trace returns the recorded execution trace (submission order). Only valid
// after Wait, and only when tracing was enabled.
func (e *Engine) Trace() []*TraceTask {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*TraceTask, len(e.trace))
	copy(out, e.trace)
	return out
}

// SchedCounters aggregates the scheduler's dispatch accounting: how tasks
// reached their workers and how the pool slept. Valid at any time; the
// counts are exact once Wait has returned.
type SchedCounters struct {
	// LaneHits, LocalHits and Steals partition the dispatches: shared
	// priority lane, own-deque pop, and steal respectively.
	LaneHits  int64
	LocalHits int64
	Steals    int64
	// RemoteReleases counts successors pushed to another worker's deque
	// because their written tile's previous version lives in that worker's
	// cache (the locality heuristic crossing workers).
	RemoteReleases int64
	// Parks counts worker sleep transitions — under the old single-heap
	// engine every completion broadcast-woke the whole pool; here wakeups
	// are targeted, so parks roughly track genuine idle periods.
	Parks int64
}

// Dispatches returns the total number of task dispatches.
func (c SchedCounters) Dispatches() int64 { return c.LaneHits + c.LocalHits + c.Steals }

// LocalHitRate returns the fraction of deque-path dispatches (everything
// below LanePriority) that the owning worker served from its own deque —
// the locality heuristic's hit rate.
func (c SchedCounters) LocalHitRate() float64 {
	if c.LocalHits+c.Steals == 0 {
		return 0
	}
	return float64(c.LocalHits) / float64(c.LocalHits+c.Steals)
}

// SchedCounters sums the per-worker scheduler counters.
func (e *Engine) SchedCounters() SchedCounters {
	var c SchedCounters
	for _, w := range e.ws {
		c.LaneHits += w.laneHits.Load()
		c.LocalHits += w.localHits.Load()
		c.Steals += w.steals.Load()
		c.RemoteReleases += w.remoteReleases.Load()
		c.Parks += w.parks.Load()
	}
	return c
}
