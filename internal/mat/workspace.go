package mat

import "sync"

// Workspace management: a size-classed sync.Pool arena for the scratch
// buffers every kernel call needs (GEMM pack panels, Householder work
// vectors, stacked-panel copies), at either element type. The factorization
// engine executes O(nt³) kernel tasks; without pooling, each task performs
// several make([]T, …) calls and the allocator + GC become a measurable part
// of the critical path. With the arena, steady-state kernel calls perform
// zero heap allocations.
//
// Ownership rules (see DESIGN.md "Kernel layer"):
//
//   - The function that calls GetBuf must PutBuf the same *Buf before it
//     returns (defer is fine). Buffers are never retained across kernel
//     calls or tasks, and never shared between goroutines.
//   - Buffer contents are unspecified on Get: callers must fully overwrite
//     (or explicitly zero) what they read.
//   - PutBuf(nil) is a no-op so error paths stay simple.

// wsClasses are power-of-two size classes from 1<<wsMinBits to
// 1<<(wsMinBits+wsClasses-1) elements (64 … 4M, i.e. up to 32 MiB of
// float64). Requests above the largest class fall back to plain allocation.
const (
	wsMinBits = 6
	wsClasses = 17
)

// Buf is a pooled scratch buffer. Data has exactly the requested length;
// its backing array is the size-class capacity.
type Buf[T Float] struct {
	Data []T
	pool *sync.Pool // the size class's pool, nil for an unpooled (oversized) buffer
	m    Dense[T]   // GetMatrix's header over Data
}

// arena is the size-classed pool of one element type.
type arena[T Float] [wsClasses]sync.Pool

var (
	arena64 arena[float64]
	arena32 arena[float32]
)

// arenaFor returns the pool of element type T.
func arenaFor[T Float]() *arena[T] {
	if a, ok := any(&arena64).(*arena[T]); ok {
		return a
	}
	return any(&arena32).(*arena[T])
}

// classFor returns the smallest size class holding n elements, or -1 when n
// exceeds every class.
func classFor(n int) int {
	for c := 0; c < wsClasses; c++ {
		if n <= 1<<(wsMinBits+c) {
			return c
		}
	}
	return -1
}

// GetBuf returns a buffer with len(Data) == n. Contents are unspecified.
func GetBuf[T Float](n int) *Buf[T] {
	if n < 0 {
		panic("mat: GetBuf with negative size")
	}
	c := classFor(n)
	if c < 0 {
		return &Buf[T]{Data: make([]T, n)}
	}
	pool := &arenaFor[T]()[c]
	b, ok := pool.Get().(*Buf[T])
	if !ok {
		b = &Buf[T]{Data: make([]T, 1<<(wsMinBits+c)), pool: pool}
	}
	b.Data = b.Data[:cap(b.Data)][:n]
	return b
}

// PutBuf returns a buffer to its pool. The caller must not use b (or any
// Dense view created from it) afterwards. PutBuf(nil) is a no-op.
func PutBuf[T Float](b *Buf[T]) {
	if b == nil || b.pool == nil {
		return
	}
	b.pool.Put(b)
}

// GetMatrix returns a rows×cols matrix backed by a pooled buffer, plus the
// buffer to PutBuf when done. Contents are unspecified. The matrix header
// lives in the buffer, so a steady-state call allocates nothing; it dies
// with the buffer at PutBuf.
func GetMatrix[T Float](rows, cols int) (*Dense[T], *Buf[T]) {
	b := GetBuf[T](rows * cols)
	b.m = Dense[T]{Rows: rows, Cols: cols, Stride: cols, Data: b.Data}
	return &b.m, b
}
