package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealStress floods one worker's deque through a fan-out hub and checks
// that the rest of the pool steals its way through the backlog. The task
// bodies sleep so the hub worker cannot drain its own deque before the woken
// thieves arrive; run under -race this also stress-tests the deque, parking
// and wake protocols.
func TestStealStress(t *testing.T) {
	const workers, fan = 8, 400
	e := NewEngine(Config{Workers: workers})
	defer e.Close()
	hub := e.NewHandle("hub", 8, 0)
	var ran atomic.Int64
	// The hub blocks until every leaf is submitted, so all of them become
	// ready through its completion (the deque release path), not at submit
	// (the lane injection path).
	gate := make(chan struct{})
	e.Submit(TaskSpec{Name: "hub", Accesses: []Access{W(hub)}, Run: func() { <-gate }})
	for i := 0; i < fan; i++ {
		// Pure readers of the hub's output: no written handle, so no cache
		// affinity — every one lands on the deque of the worker that ran
		// the hub, and the thieves must pull from there.
		e.Submit(TaskSpec{Name: "leaf", Accesses: []Access{R(hub)}, Run: func() {
			time.Sleep(50 * time.Microsecond)
			ran.Add(1)
		}})
	}
	close(gate)
	e.Wait()
	if got := ran.Load(); got != fan {
		t.Fatalf("ran %d of %d leaves", got, fan)
	}
	c := e.SchedCounters()
	if c.Dispatches() != fan+1 {
		t.Fatalf("dispatches = %d, want %d", c.Dispatches(), fan+1)
	}
	if c.Steals == 0 {
		t.Fatalf("no steals despite a %d-task fan-out on one deque: %+v", fan, c)
	}
}

// TestLocalityChainStaysLocal checks the locality-aware release: a WAW chain
// on one handle re-versions the same datum, so every link's affinity points
// at the worker that ran the previous link, and with nothing else to do the
// whole chain must execute on a single worker from its own deque — no
// steals, no lane traffic after the injected head.
func TestLocalityChainStaysLocal(t *testing.T) {
	const links = 50
	e := NewEngine(Config{Workers: 4, Trace: true})
	defer e.Close()
	h := e.NewHandle("tile", 8, 0)
	for i := 0; i < links; i++ {
		var body func()
		if i == 0 {
			// The head sleeps long enough for the other workers' startup
			// polls to settle into parking; afterwards nothing wakes them —
			// a one-deep own-deque push never summons help.
			body = func() { time.Sleep(time.Millisecond) }
		}
		e.Submit(TaskSpec{Name: "link", Accesses: []Access{W(h)}, Run: body})
	}
	e.Wait()
	tr := e.Trace()
	if len(tr) != links {
		t.Fatalf("traced %d tasks", len(tr))
	}
	if tr[0].Dispatch != DispatchLane {
		t.Fatalf("chain head dispatched via %v, want lane injection", tr[0].Dispatch)
	}
	owner := tr[0].Worker
	for _, tt := range tr[1:] {
		if tt.Worker != owner {
			t.Fatalf("link %d migrated to worker %d (chain owner %d)", tt.ID, tt.Worker, owner)
		}
		if tt.Dispatch != DispatchLocal {
			t.Fatalf("link %d dispatched via %v, want local", tt.ID, tt.Dispatch)
		}
	}
	c := e.SchedCounters()
	if c.Steals != 0 || c.RemoteReleases != 0 {
		t.Fatalf("single chain caused steals/remote releases: %+v", c)
	}
	if c.LocalHits != links-1 {
		t.Fatalf("local hits = %d, want %d", c.LocalHits, links-1)
	}
}

// TestAffinityReleaseCrossesWorkers checks the cross-worker half of the
// locality heuristic: when worker A produced version v of a tile and worker
// B's task completion makes the tile's v+1 writer ready, the new task must
// land on A's deque (a remote release), not B's. Where it then runs is up to
// the scheduler: A pops it from its own deque, or — if B's steal sweep gets
// there before A wakes — B steals it. Either way the dispatch kind must
// match the worker.
//
// The task bodies hand-shake so that every run takes this path: "produce"
// and "other" each block until the other one is running, so they hold the
// two workers side by side, and "other" finishes only after "probe" — a
// successor of "produce" that "consume" does not wait for — has started,
// by which time A has finished releasing the successors of "produce".
func TestAffinityReleaseCrossesWorkers(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Trace: true})
	defer e.Close()
	tile := e.NewHandle("tile", 8, 0)
	dep := e.NewHandle("dep", 8, 0)
	sig := e.NewHandle("sig", 8, 0)

	// A stalled hand-shake lets its task go on and fails the test below,
	// instead of hanging the suite.
	var stalled atomic.Bool
	await := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			stalled.Store(true)
		}
	}
	submitted := make(chan struct{})
	otherRunning := make(chan struct{})
	probeRunning := make(chan struct{})
	// v1 writer of tile, on some worker A. Holding A until "other" runs puts
	// "other" on worker B; waiting for every Submit first keeps "produce"
	// from finishing before its successors attach to it.
	e.Submit(TaskSpec{Name: "produce", Accesses: []Access{W(tile), W(sig)}, Run: func() {
		await(submitted)
		await(otherRunning)
	}})
	// Runs on worker B; its completion releases "consume", whose affinity
	// (last writer of tile) executed on A.
	e.Submit(TaskSpec{Name: "other", Accesses: []Access{W(dep)}, Run: func() {
		close(otherRunning)
		await(probeRunning)
	}})
	// Released by the completion of "produce" onto A's deque, and popped
	// there once A has gone through every successor of "produce" (B, blocked
	// in "other", cannot steal it).
	e.Submit(TaskSpec{Name: "probe", Accesses: []Access{R(sig)}, Run: func() { close(probeRunning) }})
	e.Submit(TaskSpec{Name: "consume", Accesses: []Access{W(tile), R(dep)}})
	close(submitted)
	e.Wait()
	if stalled.Load() {
		t.Fatal("a task waited 10s for its hand-shake partner: produce and other never ran side by side")
	}

	tr := e.Trace()
	byName := map[string]*TraceTask{}
	for _, tt := range tr {
		byName[tt.Name] = tt
	}
	prod, other, cons := byName["produce"], byName["other"], byName["consume"]
	if other.Worker == prod.Worker {
		t.Fatalf("produce and other both ran on worker %d", prod.Worker)
	}
	if c := e.SchedCounters(); c.RemoteReleases == 0 {
		t.Fatalf("consume was not released to the producer's deque: counters %+v", c)
	}
	switch {
	case cons.Worker == prod.Worker && cons.Dispatch == DispatchLocal:
	case cons.Worker != prod.Worker && cons.Dispatch == DispatchSteal:
	default:
		t.Fatalf("consume ran on worker %d via %v; want the producer's worker %d via %v, or a steal",
			cons.Worker, cons.Dispatch, prod.Worker, DispatchLocal)
	}
}

// TestDeterminismManyWorkersRace is the scheduler-correctness pin of the
// dataflow contract at scale: the same submission program yields bit-equal
// results at 1, 2, 8 and 16 workers, with enough parallel slack in the graph
// that deques, steals, parking and the lane all engage (run under -race by
// the tier1 gate).
func TestDeterminismManyWorkersRace(t *testing.T) {
	run := func(workers int) []int {
		e := NewEngine(Config{Workers: workers})
		defer e.Close()
		const n = 16
		hs := make([]*Handle, n)
		vals := make([]int, n)
		for i := range hs {
			hs[i] = e.NewHandle("h", 8, 0)
		}
		for i := 0; i < n; i++ {
			i := i
			e.Submit(TaskSpec{Name: "init", Accesses: []Access{W(hs[i])}, Run: func() { vals[i] = i + 1 }})
		}
		for step := 0; step < 30; step++ {
			prio := 0
			if step%3 == 0 {
				prio = LanePriority + step // every third wave through the lane
			}
			for i := 0; i < n-1; i++ {
				i := i
				e.Submit(TaskSpec{Name: "mix", Priority: prio, Accesses: []Access{R(hs[i]), W(hs[i+1])}, Run: func() {
					vals[i+1] = vals[i+1]*31 + vals[i]
				}})
			}
		}
		e.Wait()
		return vals
	}
	want := run(1)
	for _, w := range []int{2, 8, 16} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: vals[%d]=%d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestParkWakeChurn drives the pool through repeated empty→full→empty
// transitions so the targeted parking protocol's register/re-check/wake
// handshake is exercised from both sides (lost-wakeup hunting, -race).
func TestParkWakeChurn(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	var total atomic.Int64
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		wg.Add(8)
		for i := 0; i < 8; i++ {
			e.Submit(TaskSpec{Name: "burst", Run: func() {
				total.Add(1)
				wg.Done()
			}})
		}
		wg.Wait() // drain fully so every round re-parks the pool
	}
	e.Wait()
	if got := total.Load(); got != 1600 {
		t.Fatalf("ran %d tasks, want 1600", got)
	}
	if c := e.SchedCounters(); c.Parks == 0 {
		t.Fatalf("pool never parked across 200 empty transitions: %+v", c)
	}
}
