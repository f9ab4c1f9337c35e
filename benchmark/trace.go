package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	rt "luqr/internal/runtime"
)

// span is one timed interval of the traced pass: a call the benchmark made
// into a layer, an isolated probe, or a task record of a traced
// factorization (a child of its core.Run span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // shared by the spans of one request or call
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced pass's spans in memory until write. Every
// method is a no-op on a nil recorder, so untraced runs pay nothing.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(layer, name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
	return id
}

// addTasks records the task records of one traced core.Run as children of
// its span. Task times count from the engine's start, which the caller
// cannot observe; they are anchored at the call's start and clipped to its
// end, which keeps every child inside its parent.
func (r *recorder) addTasks(parent int, trace []*rt.TraceTask) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	for _, t := range trace {
		s := span{ID: len(r.spans) + 1, Parent: parent, Req: p.Req, Layer: kernelLayer(t.Kernel), Name: t.Kernel,
			Start: min(p.Start+t.BeginNS, p.End), End: min(p.Start+t.EndNS, p.End)}
		r.spans = append(r.spans, s)
	}
}

// kernelLayer maps a task's kernel family to the module that runs it.
func kernelLayer(kernel string) string {
	switch kernel {
	case "GEMM", "TRSM", "SWPTRSM":
		return "blas"
	case "NORM", "DECIDE":
		return "criteria"
	case "BACKUP", "RESTORE", "PROPAGATE":
		return "core.backup"
	}
	return "lapack"
}

// layerTime is a layer's summed span duration and self time.
type layerTime struct {
	Spans      int
	Total, Own time.Duration
}

// selfTimes sums, per layer, the duration of its spans and their self time:
// a span's duration minus the union of its children's intervals.
func (r *recorder) selfTimes() map[string]*layerTime {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range r.spans {
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTime{}
			out[s.Layer] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Spans++
		lt.Total += d
		lt.Own += d - time.Duration(covered(children[s.ID]))
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range ss {
		switch {
		case !open:
			curStart, curEnd, open = s.Start, s.End, true
		case s.Start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
		case s.End > curEnd:
			curEnd = s.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
