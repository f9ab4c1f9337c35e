package mat

import "sync"

// Float32 side of the workspace arena. The mixed-precision kernel path packs
// float32 operands into micro-panels and accumulates float32 results in
// scratch blocks; those buffers churn exactly like the float64 ones, so they
// get the same size-classed sync.Pool treatment and the same ownership rules
// (Get → use → Put within one call, contents unspecified on Get).

// Buf32 is a pooled float32 scratch buffer. Data has exactly the requested
// length; its backing array is the size-class capacity.
type Buf32 struct {
	Data  []float32
	class int // pool index, or -1 for an unpooled (oversized) buffer
}

var ws32Pools [wsClasses]sync.Pool

func init() {
	for c := range ws32Pools {
		c := c
		ws32Pools[c].New = func() any {
			return &Buf32{Data: make([]float32, 1<<(wsMinBits+c)), class: c}
		}
	}
}

// GetBuf32 returns a buffer with len(Data) == n. Contents are unspecified.
func GetBuf32(n int) *Buf32 {
	if n < 0 {
		panic("mat: GetBuf32 with negative size")
	}
	c := classFor(n)
	if c < 0 {
		return &Buf32{Data: make([]float32, n), class: -1}
	}
	b := ws32Pools[c].Get().(*Buf32)
	b.Data = b.Data[:cap(b.Data)][:n]
	return b
}

// PutBuf32 returns a buffer to its pool. The caller must not use b
// afterwards. PutBuf32(nil) is a no-op.
func PutBuf32(b *Buf32) {
	if b == nil || b.class < 0 {
		return
	}
	ws32Pools[b.class].Put(b)
}

// Matrix32 views the first rows·cols elements of the buffer as a rows×cols
// row-major float32 matrix with tight stride. The view aliases b.Data; it
// dies with the buffer at PutBuf32. Contents are unspecified.
func (b *Buf32) Matrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 || rows*cols > len(b.Data) {
		panic("mat: Buf32.Matrix32 view larger than buffer")
	}
	return &Matrix32{Rows: rows, Cols: cols, Stride: cols, Data: b.Data[:rows*cols]}
}

// GetMatrix32 returns a rows×cols float32 matrix backed by a pooled buffer,
// plus the buffer to PutBuf32 when done. Contents are unspecified.
func GetMatrix32(rows, cols int) (*Matrix32, *Buf32) {
	b := GetBuf32(rows * cols)
	return b.Matrix32(rows, cols), b
}
