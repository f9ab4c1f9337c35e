package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSequentialChain(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		i := i
		e.Submit(TaskSpec{
			Name:     "step",
			Accesses: []Access{W(h)},
			Run: func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	e.Wait()
	if len(order) != 50 {
		t.Fatalf("ran %d tasks", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("WAW chain executed out of order: %v", order)
		}
	}
}

func TestReadersRunConcurrentlyBetweenWrites(t *testing.T) {
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	var stage int32
	e.Submit(TaskSpec{Name: "w1", Accesses: []Access{W(h)}, Run: func() { atomic.StoreInt32(&stage, 1) }})
	var readsOK int32
	for i := 0; i < 10; i++ {
		e.Submit(TaskSpec{Name: "r", Accesses: []Access{R(h)}, Run: func() {
			if atomic.LoadInt32(&stage) == 1 {
				atomic.AddInt32(&readsOK, 1)
			}
		}})
	}
	e.Submit(TaskSpec{Name: "w2", Accesses: []Access{W(h)}, Run: func() { atomic.StoreInt32(&stage, 2) }})
	e.Wait()
	if readsOK != 10 {
		t.Fatalf("only %d reads saw the first write and not the second", readsOK)
	}
}

func TestRAWDependency(t *testing.T) {
	e := NewEngine(Config{Workers: 8})
	defer e.Close()
	a := e.NewHandle("a", 8, 0)
	b := e.NewHandle("b", 8, 0)
	val := 0
	e.Submit(TaskSpec{Name: "wa", Accesses: []Access{W(a)}, Run: func() { val = 42 }})
	got := 0
	e.Submit(TaskSpec{Name: "copy", Accesses: []Access{R(a), W(b)}, Run: func() { got = val }})
	e.Wait()
	if got != 42 {
		t.Fatalf("RAW violated: got %d", got)
	}
}

func TestDiamond(t *testing.T) {
	// a -> (b, c) -> d: d must see both updates.
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	ha := e.NewHandle("a", 8, 0)
	hb := e.NewHandle("b", 8, 0)
	hc := e.NewHandle("c", 8, 0)
	var a, b, c, d int
	e.Submit(TaskSpec{Name: "a", Accesses: []Access{W(ha)}, Run: func() { a = 1 }})
	e.Submit(TaskSpec{Name: "b", Accesses: []Access{R(ha), W(hb)}, Run: func() { b = a + 1 }})
	e.Submit(TaskSpec{Name: "c", Accesses: []Access{R(ha), W(hc)}, Run: func() { c = a + 2 }})
	e.Submit(TaskSpec{Name: "d", Accesses: []Access{R(hb), R(hc)}, Run: func() { d = b + c }})
	e.Wait()
	if d != 5 {
		t.Fatalf("diamond result %d, want 5", d)
	}
}

func TestDynamicUnfolding(t *testing.T) {
	// A decision task submits a different follow-up task depending on a
	// value computed at run time — the hybrid algorithm's core pattern.
	e := NewEngine(Config{Workers: 4})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	result := ""
	decide := func(branch string) {
		e.Submit(TaskSpec{Name: "decision", Accesses: []Access{W(h)}, Then: func(en *Engine) {
			if branch == "lu" {
				en.Submit(TaskSpec{Name: "lu-step", Accesses: []Access{W(h)}, Run: func() { result += "L" }})
			} else {
				en.Submit(TaskSpec{Name: "qr-step", Accesses: []Access{W(h)}, Run: func() { result += "Q" }})
			}
		}})
	}
	decide("lu")
	e.Wait()
	decide("qr")
	e.Wait()
	decide("lu")
	e.Wait()
	if result != "LQL" {
		t.Fatalf("dynamic unfolding produced %q", result)
	}
}

func TestNestedUnfoldingCountsPending(t *testing.T) {
	// Wait must not return before recursively submitted tasks finish.
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	var count int32
	var spawn func(depth int) TaskSpec
	spawn = func(depth int) TaskSpec {
		return TaskSpec{
			Name: "spawn",
			Run:  func() { atomic.AddInt32(&count, 1) },
			Then: func(en *Engine) {
				if depth > 0 {
					en.Submit(spawn(depth - 1))
					en.Submit(spawn(depth - 1))
				}
			},
		}
	}
	e.Submit(spawn(6))
	e.Wait()
	if got := atomic.LoadInt32(&count); got != 127 { // 2^7 − 1
		t.Fatalf("ran %d tasks, want 127", got)
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	// The same submission program must give identical results for any
	// worker count (the paper's dataflow semantics).
	run := func(workers int) []int {
		e := NewEngine(Config{Workers: workers})
		defer e.Close()
		n := 8
		hs := make([]*Handle, n)
		vals := make([]int, n)
		for i := range hs {
			hs[i] = e.NewHandle("h", 8, 0)
		}
		for i := 0; i < n; i++ {
			i := i
			e.Submit(TaskSpec{Name: "init", Accesses: []Access{W(hs[i])}, Run: func() { vals[i] = i }})
		}
		for step := 0; step < 20; step++ {
			for i := 0; i < n-1; i++ {
				i := i
				e.Submit(TaskSpec{Name: "mix", Accesses: []Access{R(hs[i]), W(hs[i+1])}, Run: func() {
					vals[i+1] = vals[i+1]*3 + vals[i]
				}})
			}
		}
		e.Wait()
		return vals
	}
	want := run(1)
	for _, w := range []int{2, 4, 8, 16} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: vals[%d]=%d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestPriorityOrderWhenSerialized(t *testing.T) {
	// With one worker and all tasks ready, lane tasks (Priority ≥
	// LanePriority) must run in priority order, before any deque task.
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	var mu sync.Mutex
	var order []string
	gate := e.NewHandle("gate", 8, 0)
	// Block the single worker so the queues can fill up.
	release := make(chan struct{})
	e.Submit(TaskSpec{Name: "gate", Accesses: []Access{W(gate)}, Run: func() { <-release }})
	add := func(name string, prio int) {
		e.Submit(TaskSpec{Name: name, Priority: prio, Accesses: []Access{R(gate)}, Run: func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}})
	}
	add("low", 0) // below LanePriority: rides the worker deque
	add("high", LanePriority+10)
	add("mid", LanePriority+5)
	close(release)
	e.Wait()
	if len(order) != 3 || order[0] != "high" || order[1] != "mid" || order[2] != "low" {
		t.Fatalf("priority order %v", order)
	}
}

func TestLanePriorityOrderAtSubmit(t *testing.T) {
	// Ready-at-submit tasks are injected into the shared lane regardless of
	// priority, so a burst of independent roots still runs highest-first
	// when serialized on one worker.
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	gate := e.NewHandle("gate", 8, 0)
	release := make(chan struct{})
	e.Submit(TaskSpec{Name: "gate", Accesses: []Access{W(gate)}, Run: func() { <-release }})
	var mu sync.Mutex
	var order []int
	for _, prio := range []int{3, 9, 1, 7} {
		prio := prio
		// Independent tasks (no accesses) are ready at submit; the gate task
		// keeps the worker busy while they pile up in the lane.
		e.Submit(TaskSpec{Name: "root", Priority: prio, Run: func() {
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
		}})
	}
	close(release)
	e.Wait()
	want := []int{9, 7, 3, 1}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("lane order %v, want %v", order, want)
		}
	}
}

func TestTraceDepsAndMessages(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Trace: true})
	defer e.Close()
	a := e.NewHandle("a", 100, 0) // owned by node 0
	e.Submit(TaskSpec{Name: "w", Kernel: "GETRF", Node: 0, Flops: 5, Accesses: []Access{W(a)}})
	e.Submit(TaskSpec{Name: "r1", Kernel: "GEMM", Node: 1, Accesses: []Access{R(a)}})
	e.Submit(TaskSpec{Name: "r2", Kernel: "GEMM", Node: 1, Accesses: []Access{R(a)}}) // same node: no second message
	e.Submit(TaskSpec{Name: "r3", Kernel: "GEMM", Node: 2, Accesses: []Access{R(a)}})
	e.Wait()
	tr := e.Trace()
	if len(tr) != 4 {
		t.Fatalf("trace has %d tasks", len(tr))
	}
	if tr[0].Flops != 5 || tr[0].Kernel != "GETRF" {
		t.Fatal("trace metadata lost")
	}
	if len(tr[1].Deps) != 1 || tr[1].Deps[0] != tr[0].ID {
		t.Fatalf("r1 deps = %v", tr[1].Deps)
	}
	if len(tr[1].Recv) != 1 || tr[1].Recv[0] != (Message{From: 0, To: 1, Bytes: 100}) {
		t.Fatalf("r1 messages = %v", tr[1].Recv)
	}
	if len(tr[2].Recv) != 0 {
		t.Fatalf("r2 should reuse the broadcast: %v", tr[2].Recv)
	}
	if len(tr[3].Recv) != 1 || tr[3].Recv[0].To != 2 {
		t.Fatalf("r3 messages = %v", tr[3].Recv)
	}
}

func TestTraceInitialHomeTransfer(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Trace: true})
	defer e.Close()
	a := e.NewHandle("a", 64, 3) // initial version lives on node 3
	e.Submit(TaskSpec{Name: "r", Node: 1, Accesses: []Access{R(a)}})
	e.Wait()
	tr := e.Trace()
	if len(tr[0].Recv) != 1 || tr[0].Recv[0] != (Message{From: 3, To: 1, Bytes: 64}) {
		t.Fatalf("initial transfer = %v", tr[0].Recv)
	}
}

func TestWARBlocksEarlyWrite(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(Config{Workers: 4})
		defer e.Close()
		h := e.NewHandle("x", 8, 0)
		v := 0
		e.Submit(TaskSpec{Name: "w1", Accesses: []Access{W(h)}, Run: func() { v = 1 }})
		saw := make([]int, 5)
		for i := 0; i < 5; i++ {
			i := i
			e.Submit(TaskSpec{Name: "r", Accesses: []Access{R(h)}, Run: func() { saw[i] = v }})
		}
		e.Submit(TaskSpec{Name: "w2", Accesses: []Access{W(h)}, Run: func() { v = 2 }})
		e.Wait()
		for _, s := range saw {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestObserveSeesVersion: an observer runs once, in the next task that
// accesses its handle, and sees the version the tasks submitted before it
// left, however the workers interleave; a second Observe before any such
// task replaces the first, an observer no task takes never runs, and
// observers add no task and no dependency.
func TestObserveSeesVersion(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(Config{Workers: 4, Trace: true})
		defer e.Close()
		h, other := e.NewHandle("x", 8, 0), e.NewHandle("y", 8, 0)
		var v atomic.Int64
		var saw [4]atomic.Int64
		var runs [4]atomic.Int32
		observer := func(i int) func() {
			return func() { runs[i].Add(1); saw[i].Store(v.Load()) }
		}
		write := func(x int64) TaskSpec {
			return TaskSpec{Name: "w", Accesses: []Access{W(h)}, Run: func() {
				time.Sleep(time.Duration(seed%3) * time.Microsecond)
				v.Store(x)
			}}
		}
		e.Submit(write(1))
		e.Observe(h, observer(0))
		e.Submit(TaskSpec{Name: "y", Accesses: []Access{W(other)}})
		e.Submit(TaskSpec{Name: "r", Accesses: []Access{R(h)}})
		e.Submit(write(2))
		e.Observe(h, observer(1))
		e.Observe(h, observer(2))
		e.Submit(write(3))
		e.Observe(h, observer(3))
		e.Wait()
		if len(e.Trace()) != 5 {
			return false
		}
		return runs[0].Load() == 1 && saw[0].Load() == 1 &&
			runs[1].Load() == 0 &&
			runs[2].Load() == 1 && saw[2].Load() == 2 &&
			runs[3].Load() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDOTOutput(t *testing.T) {
	e := NewEngine(Config{Workers: 1, Trace: true})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	e.Submit(TaskSpec{Name: "Backup(0)", Kernel: "BACKUP", Accesses: []Access{W(h)}})
	e.Submit(TaskSpec{Name: "GEMM(1,1)", Kernel: "GEMM", Node: 1, Accesses: []Access{W(h)}})
	e.Wait()
	dot := DOT(e.Trace(), true)
	for _, want := range []string{"digraph", "Backup(0)", "GEMM(1,1)", "t0 -> t1", "cluster_node1"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// TestParallelOutsideTheGraph: Parallel runs every index exactly once, on at
// most Workers calls at a time, and leaves no trace record and no dispatch
// count behind; after Close it panics like Submit.
func TestParallelOutsideTheGraph(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := NewEngine(Config{Workers: workers, Trace: true})
		e.Submit(TaskSpec{Name: "t", Kernel: "K", Accesses: []Access{W(e.NewHandle("x", 8, 0))}})
		e.Wait()
		before := e.SchedCounters().Dispatches()
		var hits [100]atomic.Int32
		var inFlight, peak atomic.Int32
		e.Parallel(len(hits), func(i int) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			hits[i].Add(1)
			inFlight.Add(-1)
		})
		e.Parallel(0, func(int) { t.Error("body called for n = 0") })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
		if p := int(peak.Load()); p > workers {
			t.Fatalf("workers=%d: %d calls ran at once", workers, p)
		}
		if n := len(e.Trace()); n != 1 {
			t.Fatalf("workers=%d: %d trace records, want the graph's 1", workers, n)
		}
		if d := e.SchedCounters().Dispatches(); d != before {
			t.Fatalf("workers=%d: dispatches %d → %d", workers, before, d)
		}
		e.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: Parallel after Close did not panic", workers)
				}
			}()
			e.Parallel(1, func(int) {})
		}()
	}
}
