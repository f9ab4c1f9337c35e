// Package mat provides the dense matrix core used by every other package in
// the solver: a row-major matrix type, generic over the two precisions the
// solver computes in, with views, copies, norms and residual helpers.
//
// The representation is deliberately minimal — a (rows, cols, stride, data)
// quadruple — so that tiles, panels and stacked panels can all alias the same
// backing storage without copies. All numerical kernels live in the blas and
// lapack packages; this package only carries data and cheap O(rows·cols)
// reductions.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Float is the element-type constraint of Dense: the solver computes in
// float64, and the mixed-precision path in float32.
type Float interface {
	float32 | float64
}

// Dense is a dense row-major matrix view. Element (i, j) lives at
// Data[i*Stride+j]. A Dense may be a view into a larger allocation, so
// len(Data) can exceed Rows*Stride; mutating a view mutates the parent.
type Dense[T Float] struct {
	Rows   int
	Cols   int
	Stride int
	Data   []T
}

// Matrix is the float64 matrix every layer of the solver stores.
type Matrix = Dense[float64]

// newDense allocates a zeroed rows×cols matrix with a tight stride.
func newDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Stride: cols, Data: make([]T, rows*cols)}
}

// New allocates a zeroed rows×cols float64 matrix with a tight stride.
func New(rows, cols int) *Matrix { return newDense[float64](rows, cols) }

// FromSlice builds a rows×cols matrix backed by a copy of data, which must
// hold exactly rows*cols elements in row-major order.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*m.Stride+i] = 1
	}
	return m
}

// At returns element (i, j). Bounds are checked by the slice access in the
// common case; explicit checks are reserved for Set/At in debug helpers.
func (m *Dense[T]) At(i, j int) T {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(rangeError{op: "At", i: i, j: j, mr: m.Rows, mc: m.Cols})
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Dense[T]) Set(i, j int, v T) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(rangeError{op: "Set", i: i, j: j, mr: m.Rows, mc: m.Cols})
	}
	m.Data[i*m.Stride+j] = v
}

// View returns a sub-matrix view of size rows×cols starting at (i, j). The
// view shares storage with m.
func (m *Dense[T]) View(i, j, rows, cols int) *Dense[T] {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(rangeError{op: "View", i: i, j: j, rows: rows, cols: cols, mr: m.Rows, mc: m.Cols})
	}
	return &Dense[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride+j:],
	}
}

// Row returns row i as a length-Cols slice aliasing m's storage.
func (m *Dense[T]) Row(i int) []T {
	if i < 0 || i >= m.Rows {
		panic(rangeError{op: "Row", i: i, mr: m.Rows})
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// rangeError is the panic value of an out-of-range At, Set, View or Row.
// The accessors build it rather than the message, which keeps them within
// the inliner's budget inside the generic kernels too. There, a View that
// is not inlined returns its header from the heap, and an At, Set or Row
// costs a call per element.
type rangeError struct {
	op                       string
	i, j, rows, cols, mr, mc int
}

func (e rangeError) Error() string {
	switch e.op {
	case "View":
		return fmt.Sprintf("mat: View(%d,%d,%d,%d) out of range %dx%d", e.i, e.j, e.rows, e.cols, e.mr, e.mc)
	case "Row":
		return fmt.Sprintf("mat: Row(%d) out of range %d", e.i, e.mr)
	}
	return fmt.Sprintf("mat: %s(%d,%d) out of range %dx%d", e.op, e.i, e.j, e.mr, e.mc)
}

// Clone returns a deep copy of m with a tight stride.
func (m *Dense[T]) Clone() *Dense[T] {
	c := newDense[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// CopyFrom overwrites m with src. Shapes must match exactly.
func (m *Dense[T]) CopyFrom(src *Dense[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero clears every element of m (only the viewed region).
func (m *Dense[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Dense[T]) Fill(v T) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense[T]) T() *Dense[T] {
	t := newDense[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Stride+i] = v
		}
	}
	return t
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal[T Float](a, b *Dense[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] && !(ra[j] != ra[j] && rb[j] != rb[j]) { // NaN equals NaN
				return false
			}
		}
	}
	return true
}

// MaxDiff returns max_{i,j} |a(i,j) − b(i,j)| over the widened values.
// Shapes must match.
func MaxDiff[T Float](a, b *Dense[T]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MaxDiff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if v := math.Abs(float64(ra[j]) - float64(rb[j])); v > d {
				d = v
			}
		}
	}
	return d
}

// Norm1 returns the induced 1-norm (maximum absolute column sum), summed
// over the widened values so a float32 image and its float64 tile report
// the same norm. A NaN entry yields NaN: the column sums propagate it, and the final max must not
// drop it through a `>` comparison — the robustness criteria rely on NaN
// surviving into the tile norms to force a QR step on a poisoned panel.
func (m *Dense[T]) Norm1() float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += math.Abs(float64(v))
		}
	}
	max := 0.0
	for _, s := range sums {
		if math.IsNaN(s) {
			return s
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormInf returns the induced ∞-norm (maximum absolute row sum).
func (m *Dense[T]) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, v := range m.Row(i) {
			s += math.Abs(float64(v))
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormFro returns the Frobenius norm.
func (m *Dense[T]) NormFro() float64 {
	// Two-pass scaling is unnecessary at the magnitudes used here; keep the
	// straightforward accumulation.
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}

// NormMax returns max |a_ij| (not an induced norm).
func (m *Dense[T]) NormMax() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(float64(v)); a > max {
				max = a
			}
		}
	}
	return max
}

// RowAbsStats returns the largest absolute row sum and the largest |a_ij|
// over the rows lo ≤ i < hi of a, with NormInf's and NormMax's arithmetic:
// each row sums in column order and both maxima fold with `>`, so a NaN
// entry or a NaN row drops out as it does there, and folding the results of
// any split of the rows with `>` gives the whole matrix's NormInf and
// NormMax. Four rows run side by side, as independent sums.
func RowAbsStats(a *Matrix, lo, hi int) (normInf, maxAbs float64) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		var s0, s1, s2, s3 float64
		for j := range a0 {
			v0, v1, v2, v3 := math.Abs(a0[j]), math.Abs(a1[j]), math.Abs(a2[j]), math.Abs(a3[j])
			s0 += v0
			s1 += v1
			s2 += v2
			s3 += v3
			if v0 > maxAbs {
				maxAbs = v0
			}
			if v1 > maxAbs {
				maxAbs = v1
			}
			if v2 > maxAbs {
				maxAbs = v2
			}
			if v3 > maxAbs {
				maxAbs = v3
			}
		}
		for _, s := range [4]float64{s0, s1, s2, s3} {
			if s > normInf {
				normInf = s
			}
		}
	}
	for ; i < hi; i++ {
		s := 0.0
		for _, v := range a.Row(i) {
			v = math.Abs(v)
			s += v
			if v > maxAbs {
				maxAbs = v
			}
		}
		if s > normInf {
			normInf = s
		}
	}
	return normInf, maxAbs
}

// ColsAbsMax writes max_i |a(i,j)| of every column j to dst[j], in one
// pass over the rows, propagating NaN (see Norm1): a column holding a NaN
// gets the first one down the column, made positive. The per-column maxima
// feed the MUMPS criterion, which must see a poisoned column rather than
// the max of its finite entries.
func (m *Dense[T]) ColsAbsMax(dst []float64) {
	dst = dst[:m.Cols]
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			// `a > dst[j]` is false once dst[j] is NaN, so the first sticks.
			if a := math.Abs(float64(v)); a > dst[j] || math.IsNaN(a) && !math.IsNaN(dst[j]) {
				dst[j] = a
			}
		}
	}
}

// SwapRows exchanges rows i and j in place.
func (m *Dense[T]) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// IsFinite reports whether every element is finite (no NaN or ±Inf).
func (m *Dense[T]) IsFinite() bool {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense[T]) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows > maxShow || m.Cols > maxShow {
		return b.String()
	}
	b.WriteString("\n")
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% 12.5g", m.At(i, j))
		}
		b.WriteString("\n")
	}
	return b.String()
}
