package runtime

import (
	"sync"
	"sync/atomic"
)

// deque is one worker's ready-task queue: a growable power-of-two ring with
// pushes at the tail and pops at the head.
//
// Thieves take from the head — the oldest entry, the one whose cache
// affinity has decayed most. The owner pops the head too, unlike the
// classic Chase–Lev discipline that pops the tail (the successor just made
// ready, tiles still hot): on the factorization DAG oldest-first drains the
// update wavefront in pipeline order, where newest-first strands early-step
// updates under newer pushes and stalls the next panel on a buried column
// update (measured slower end to end; EXPERIMENTS.md, worker scaling).
//
// Each deque carries its own mutex rather than a lock-free Chase–Lev
// protocol: the owner's push/pop fast path is uncontended (thieves only
// arrive when their own deque and the priority lane are empty), so the
// mutex is normally a single CAS, and the engine-wide contention the old
// single-heap scheduler suffered — every dispatch and every completion
// through one lock — is gone because each worker locks only its own queue.
// The separate atomic length counter lets thieves and the parking protocol
// probe for work without touching the mutex at all.
type deque struct {
	mu   sync.Mutex
	buf  []*task // power-of-two ring; index i lives at buf[i&(len-1)]
	head int64   // oldest element (steal end)
	tail int64   // one past the youngest element (owner end)
	n    atomic.Int64
}

// dequeInitCap is sized so a factorization step's trailing-update fan-out
// fits without growing: growth allocates, and the execution hot path is
// pinned allocation-free by TestExecutionZeroAllocNoTrace.
const dequeInitCap = 256

func (d *deque) init() {
	d.buf = make([]*task, dequeInitCap)
}

// grow doubles the ring. Callers hold d.mu.
func (d *deque) grow() {
	old := d.buf
	buf := make([]*task, 2*len(old))
	oldMask := int64(len(old) - 1)
	mask := int64(len(buf) - 1)
	for i := d.head; i < d.tail; i++ {
		buf[i&mask] = old[i&oldMask]
	}
	d.buf = buf
}

// push appends t at the tail. The owner pushes its own
// newly ready successors here; other workers push here too when t's cache
// affinity points at this deque's owner (locality-aware release).
func (d *deque) push(t *task) {
	d.mu.Lock()
	if d.tail-d.head == int64(len(d.buf)) {
		d.grow()
	}
	d.buf[d.tail&int64(len(d.buf)-1)] = t
	d.tail++
	d.n.Add(1)
	d.mu.Unlock()
}

// popHead removes and returns the oldest task — the owner's pop and the
// thief's steal — or nil when the deque is empty.
func (d *deque) popHead() *task {
	if d.n.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return nil
	}
	i := d.head & int64(len(d.buf)-1)
	t := d.buf[i]
	d.buf[i] = nil
	d.head++
	d.n.Add(-1)
	d.mu.Unlock()
	return t
}
