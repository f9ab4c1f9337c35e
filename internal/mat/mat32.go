package mat

import (
	"fmt"
	"math"
)

// Matrix32 is a dense row-major float32 matrix view — the storage type of
// the mixed-precision path's resident tile images. Element (i, j) lives at
// Data[i*Stride+j]; like Matrix, a Matrix32 may be a view into a larger
// allocation, so mutating a view mutates the parent.
//
// Every float32 value widens to float64 exactly, and rounding a widened
// float32 returns the same bits, so an image demoted to float64 and promoted
// again is unchanged. That identity is what lets the residency layer
// (package tile) convert once per precision epoch instead of once per kernel
// call.
type Matrix32 struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float32
}

// NewMatrix32 allocates a zeroed rows×cols float32 matrix with a tight
// stride.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: At(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, v float32) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: Set(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Stride+j] = v
}

// View returns a sub-matrix view of size rows×cols starting at (i, j),
// sharing storage with m.
func (m *Matrix32) View(i, j, rows, cols int) *Matrix32 {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(fmt.Sprintf("mat: View(%d,%d,%d,%d) out of range %dx%d", i, j, rows, cols, m.Rows, m.Cols))
	}
	return &Matrix32{
		Rows:   rows,
		Cols:   cols,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride+j:],
	}
}

// Row returns row i as a length-Cols slice aliasing m's storage.
func (m *Matrix32) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: Row(%d) out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// CopyFrom overwrites m with src. Shapes must match exactly.
func (m *Matrix32) CopyFrom(src *Matrix32) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero clears every element of m (only the viewed region).
func (m *Matrix32) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix32) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for c, v := range ri {
		ri[c], rj[c] = rj[c], v
	}
}

// RoundFrom overwrites m with float32(src): the tile promotion conversion.
// Shapes must match exactly.
func (m *Matrix32) RoundFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: RoundFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		d, s := m.Row(i), src.Row(i)
		for j, v := range s {
			d[j] = float32(v)
		}
	}
}

// WidenInto overwrites dst with float64(m): the demotion conversion. Every
// float32 is exactly representable, so the widening is lossless. Shapes must
// match exactly.
func (m *Matrix32) WidenInto(dst *Matrix) {
	if m.Rows != dst.Rows || m.Cols != dst.Cols {
		panic(fmt.Sprintf("mat: WidenInto shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		d, s := dst.Row(i), m.Row(i)
		for j, v := range s {
			d[j] = float64(v)
		}
	}
}

// Norm1 returns the induced 1-norm over the widened values, NaN-propagating
// exactly like Matrix.Norm1 — the criterion must see identical norms whether
// a tile is float32-resident or not.
func (m *Matrix32) Norm1() float64 {
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

// ColAbsMax returns max_i |a(i,j)| for column j over the widened values,
// propagating NaN like Matrix.ColAbsMax.
func (m *Matrix32) ColAbsMax(j int) float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: ColAbsMax(%d) out of range %d", j, m.Cols))
	}
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		a := math.Abs(float64(m.Data[i*m.Stride+j]))
		if math.IsNaN(a) {
			return a
		}
		if a > max {
			max = a
		}
	}
	return max
}

// NormMax returns max |a_ij| over the widened values.
func (m *Matrix32) NormMax() float64 {
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
