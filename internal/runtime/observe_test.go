package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsHandBuiltGraph checks the Stats() aggregation on a small task
// graph with known kernels and a forced serial chain.
func TestStatsHandBuiltGraph(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Trace: true})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	spin := func() {
		deadline := time.Now().Add(200 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
	}
	// Serial chain of three writers (GEMM, GEMM, TRSM) plus two parallel
	// readers (NORM).
	e.Submit(TaskSpec{Name: "g1", Kernel: "GEMM", Flops: 10, Accesses: []Access{W(h)}, Run: spin})
	e.Submit(TaskSpec{Name: "g2", Kernel: "GEMM", Flops: 10, Accesses: []Access{W(h)}, Run: spin})
	e.Submit(TaskSpec{Name: "t1", Kernel: "TRSM", Flops: 5, Accesses: []Access{W(h)}, Run: spin})
	e.Submit(TaskSpec{Name: "n1", Kernel: "NORM", Accesses: []Access{R(h)}, Run: spin})
	e.Submit(TaskSpec{Name: "n2", Kernel: "NORM", Accesses: []Access{R(h)}, Run: spin})
	e.Wait()

	s := e.Stats()
	if s.Tasks != 5 {
		t.Fatalf("Tasks = %d, want 5", s.Tasks)
	}
	if got := s.Kernels["GEMM"].Count; got != 2 {
		t.Fatalf("GEMM count = %d, want 2", got)
	}
	if got := s.Kernels["NORM"].Count; got != 2 {
		t.Fatalf("NORM count = %d, want 2", got)
	}
	g := s.Kernels["GEMM"]
	if g.Total <= 0 || g.Mean <= 0 || g.Max <= 0 || g.Max > g.Total {
		t.Fatalf("GEMM stat implausible: %+v", g)
	}
	if g.Flops != 20 {
		t.Fatalf("GEMM flops = %g, want 20", g.Flops)
	}
	if g.Mean > g.Max {
		t.Fatalf("mean %v > max %v", g.Mean, g.Max)
	}
	// The chain g1→g2→t1 serializes at least three spins; the critical path
	// must cover them and fit inside the span.
	if s.CriticalPath < 3*200*time.Microsecond/2 {
		t.Fatalf("critical path %v too short for a 3-task serial chain", s.CriticalPath)
	}
	if s.CriticalPath > s.Span+time.Millisecond {
		t.Fatalf("critical path %v exceeds span %v", s.CriticalPath, s.Span)
	}
	if s.Workers < 1 || s.Workers > 2 {
		t.Fatalf("Workers = %d", s.Workers)
	}
	var busy time.Duration
	for _, w := range s.Worker {
		busy += w.Busy
		if w.Busy+w.Idle < s.Span-time.Millisecond {
			t.Fatalf("worker busy+idle %v does not cover span %v", w.Busy+w.Idle, s.Span)
		}
	}
	if busy != s.TotalBusy() {
		t.Fatal("TotalBusy mismatch")
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of range", u)
	}
	if s.QueueDepthMax < 0 || s.QueueDepthMean < 0 {
		t.Fatalf("queue depth stats negative: %+v", s)
	}
	names := s.KernelNames()
	if len(names) != 3 {
		t.Fatalf("kernel names %v", names)
	}
	var buf bytes.Buffer
	s.WriteTable(&buf)
	if buf.Len() == 0 {
		t.Fatal("WriteTable produced nothing")
	}
}

func TestStatsEmptyTrace(t *testing.T) {
	s := ComputeStats(nil)
	if s.Tasks != 0 || s.Span != 0 || len(s.Kernels) != 0 {
		t.Fatalf("empty-trace stats = %+v", s)
	}
	if s.Utilization() != 0 {
		t.Fatal("empty-trace utilization must be 0")
	}
}

// TestTraceTimestamps checks that every executed task records a worker slot
// and a begin ≤ end window, and that a dependent task begins after its
// predecessor ends.
func TestTraceTimestamps(t *testing.T) {
	e := NewEngine(Config{Workers: 4, Trace: true})
	defer e.Close()
	h := e.NewHandle("x", 8, 0)
	e.Submit(TaskSpec{Name: "a", Kernel: "A", Accesses: []Access{W(h)}})
	e.Submit(TaskSpec{Name: "b", Kernel: "B", Accesses: []Access{W(h)}})
	e.Wait()
	tr := e.Trace()
	for _, tt := range tr {
		if tt.BeginNS < 0 || tt.EndNS < tt.BeginNS {
			t.Fatalf("task %s window [%d, %d]", tt.Name, tt.BeginNS, tt.EndNS)
		}
		if tt.Worker < 0 || tt.Worker >= 4 {
			t.Fatalf("task %s worker %d", tt.Name, tt.Worker)
		}
	}
	if tr[1].BeginNS < tr[0].EndNS {
		t.Fatalf("dependent task began at %d before predecessor ended at %d", tr[1].BeginNS, tr[0].EndNS)
	}
}

// TestChromeTraceExport loads the exported JSON back and checks the
// trace-event structure: complete events on per-worker tracks, metadata
// naming a track for every worker index, and one flow pair per cross-node
// message.
func TestChromeTraceExport(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Trace: true})
	defer e.Close()
	a := e.NewHandle("a", 100, 0)
	e.Submit(TaskSpec{Name: "w", Kernel: "GETRF", Node: 0, Flops: 5, Accesses: []Access{W(a)}})
	e.Submit(TaskSpec{Name: "r", Kernel: "GEMM", Node: 1, Accesses: []Access{R(a)}}) // cross-node: one message
	e.Wait()

	tr := e.Trace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var xEvents, flowS, flowF, meta int
	tracks := map[int]bool{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
			if ev["ts"].(float64) < 0 {
				t.Fatalf("negative timestamp: %v", ev)
			}
		case "s":
			flowS++
		case "f":
			flowF++
		case "M":
			meta++
			if ev["name"] == "thread_name" {
				tracks[int(ev["tid"].(float64))] = true
			}
		}
	}
	if xEvents != 2 {
		t.Fatalf("%d complete events, want 2", xEvents)
	}
	if flowS != 1 || flowF != 1 {
		t.Fatalf("flow events s=%d f=%d, want one pair for the cross-node message", flowS, flowF)
	}
	if meta < 2 {
		t.Fatalf("missing metadata events (%d)", meta)
	}
	for w := 0; w < ComputeStats(tr).Workers; w++ {
		if !tracks[w] {
			t.Errorf("no thread_name track for worker %d", w)
		}
	}
}

// TestSubmitDedupesPredecessorEdges covers the duplicate-access and
// shared-writer cases: the trace graph must stay simple and the dependency
// bookkeeping balanced (the engine would deadlock in Wait otherwise).
func TestSubmitDedupesPredecessorEdges(t *testing.T) {
	e := NewEngine(Config{Workers: 2, Trace: true})
	defer e.Close()
	h1 := e.NewHandle("h1", 8, 0)
	h2 := e.NewHandle("h2", 8, 0)

	// One writer for both handles...
	e.Submit(TaskSpec{Name: "w", Accesses: []Access{W(h1), W(h2)}})
	// ...then a task reading+writing the same handle (SWPTRSM-style stacked
	// access list) and reading the second: without dedup this records the
	// writer three times.
	e.Submit(TaskSpec{Name: "rw", Accesses: []Access{R(h1), W(h1), R(h2)}})
	// A task reading the same handle twice.
	e.Submit(TaskSpec{Name: "rr", Accesses: []Access{R(h2), R(h2)}})
	// A writer after the readers: WAR edges to rw and rr, once each.
	e.Submit(TaskSpec{Name: "w2", Accesses: []Access{W(h1), W(h2)}})
	e.Wait()

	tr := e.Trace()
	for _, tt := range tr {
		seen := map[int]bool{}
		for _, d := range tt.Deps {
			if seen[d] {
				t.Fatalf("task %s has duplicate dependency edge on %d: %v", tt.Name, d, tt.Deps)
			}
			seen[d] = true
		}
	}
	if n := len(tr[1].Deps); n != 1 {
		t.Fatalf("rw should depend on w exactly once, got %v", tr[1].Deps)
	}
	if n := len(tr[2].Deps); n != 1 {
		t.Fatalf("rr should depend on its writer exactly once, got %v", tr[2].Deps)
	}
	// w2 depends on rw (last writer of h1, reader of h2), w (last writer of
	// h2) and rr (reader of h2) — each exactly once.
	if n := len(tr[3].Deps); n != 3 {
		t.Fatalf("w2 deps = %v, want exactly {rw, w, rr}", tr[3].Deps)
	}
}

// TestExecutionZeroAllocNoTrace verifies the acceptance criterion that the
// instrumentation adds zero allocations to task execution when tracing is
// disabled: tasks are submitted up front behind a gate, then executed while
// allocation counters run. The single-worker case pins the serial
// dispatch/completion/release path; the multi-worker fan-out case pins the
// steal path, the locality-release path, and the park/wake protocol.
func TestExecutionZeroAllocNoTrace(t *testing.T) {
	t.Run("serial-chain", func(t *testing.T) {
		e := NewEngine(Config{Workers: 1})
		defer e.Close()
		h := e.NewHandle("x", 8, 0)
		release := make(chan struct{})
		e.Submit(TaskSpec{Name: "gate", Accesses: []Access{W(h)}, Run: func() { <-release }})
		var sink int
		for i := 0; i < 200; i++ {
			e.Submit(TaskSpec{Name: "t", Accesses: []Access{W(h)}, Run: func() { sink++ }})
		}

		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		close(release)
		e.Wait()
		goruntime.ReadMemStats(&after)

		// Allow a little slack for runtime-internal bookkeeping (goroutine
		// wakeups etc.), but 200 task executions must not allocate per task.
		if got := after.Mallocs - before.Mallocs; got > 20 {
			t.Fatalf("executing 200 traced-off tasks allocated %d objects, want ~0", got)
		}
		if sink != 200 {
			t.Fatalf("ran %d tasks", sink)
		}
	})

	t.Run("fanout-steal", func(t *testing.T) {
		e := NewEngine(Config{Workers: 4})
		defer e.Close()
		h := e.NewHandle("x", 8, 0)
		release := make(chan struct{})
		// The fan-out stays below dequeInitCap so the release path never
		// grows a deque ring; ring growth is the one amortized allocation
		// the scheduler is allowed outside this pin.
		e.Submit(TaskSpec{Name: "gate", Accesses: []Access{W(h)}, Run: func() { <-release }})
		var sink atomic.Int32
		for i := 0; i < 200; i++ {
			e.Submit(TaskSpec{Name: "t", Accesses: []Access{R(h)}, Run: func() { sink.Add(1) }})
		}

		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		close(release)
		e.Wait()
		goruntime.ReadMemStats(&after)

		if got := after.Mallocs - before.Mallocs; got > 30 {
			t.Fatalf("executing a 200-task fan-out across 4 workers allocated %d objects, want ~0", got)
		}
		if sink.Load() != 200 {
			t.Fatalf("ran %d tasks", sink.Load())
		}
		if c := e.SchedCounters(); c.Steals == 0 {
			t.Logf("note: fan-out completed without steals (counters %+v)", c)
		}
	})
}

// BenchmarkDispatchContended measures the per-task scheduler overhead under
// worker contention: 64 independent WAW chains keep every queue busy while
// the submitting goroutine races the pool. Under -benchmem the
// steady 2 allocs/op are the task record and access list Submit allocates;
// dispatch, steal and successor release add none
// (TestExecutionZeroAllocNoTrace pins the execution side in isolation).
func BenchmarkDispatchContended(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEngine(Config{Workers: workers})
			defer e.Close()
			hs := make([]*Handle, 64)
			for i := range hs {
				hs[i] = e.NewHandle("x", 8, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Submit(TaskSpec{Name: "t", Accesses: []Access{W(hs[i%64])}})
			}
			e.Wait()
		})
	}
}

// BenchmarkTaskExecution measures the per-task engine overhead
// (submission + dispatch + completion) with tracing off and on; run with
// -benchmem to see the allocation counts the DESIGN.md overhead guarantees
// refer to.
func BenchmarkTaskExecution(b *testing.B) {
	for _, tracing := range []bool{false, true} {
		name := "trace=off"
		if tracing {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine(Config{Workers: 1, Trace: tracing})
			defer e.Close()
			h := e.NewHandle("x", 8, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Submit(TaskSpec{Name: "t", Accesses: []Access{W(h)}})
			}
			e.Wait()
		})
	}
}

// TestStatsSnapshotExportAndMerge: the wire-form export must mirror the
// aggregate exactly, survive a JSON round-trip, and fold additively.
func TestStatsSnapshotExportAndMerge(t *testing.T) {
	s := &Stats{
		Tasks:        3,
		Span:         10 * time.Millisecond,
		CriticalPath: 4 * time.Millisecond,
		Worker:       []WorkerStat{{Busy: 6 * time.Millisecond}, {Busy: 2 * time.Millisecond}},
		Kernels: map[string]KernelStat{
			"GEMM": {Count: 2, Total: 6 * time.Millisecond, Mean: 3 * time.Millisecond, Max: 4 * time.Millisecond, Flops: 20},
			"TRSM": {Count: 1, Total: 2 * time.Millisecond, Mean: 2 * time.Millisecond, Max: 2 * time.Millisecond, Flops: 5},
		},
	}
	snap := s.Snapshot()
	if snap.Tasks != 3 || snap.SpanNS != int64(10*time.Millisecond) || snap.BusyNS != int64(8*time.Millisecond) {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if g := snap.Kernels["GEMM"]; g.Count != 2 || g.TotalNS != int64(6*time.Millisecond) || g.Flops != 20 {
		t.Fatalf("GEMM snapshot wrong: %+v", g)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var back StatsSnapshot
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("JSON round-trip changed the snapshot:\n  out %+v\n  in  %+v", snap, back)
	}

	var acc StatsSnapshot
	acc.Add(snap)
	acc.Add(snap)
	if acc.Tasks != 6 || acc.BusyNS != 2*snap.BusyNS {
		t.Fatalf("merge totals wrong: %+v", acc)
	}
	g := acc.Kernels["GEMM"]
	if g.Count != 4 || g.TotalNS != 2*int64(6*time.Millisecond) || g.MaxNS != int64(4*time.Millisecond) {
		t.Fatalf("merged GEMM wrong: %+v", g)
	}
	if g.MeanNS != g.TotalNS/4 {
		t.Fatalf("merged GEMM mean %d, want %d", g.MeanNS, g.TotalNS/4)
	}
}
