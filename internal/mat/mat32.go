package mat

import "fmt"

// Matrix32 is the float32 matrix of the mixed-precision path's resident tile
// images.
//
// Every float32 value widens to float64 exactly, and rounding a widened
// float32 returns the same bits, so an image demoted to float64 and promoted
// again is unchanged. That identity is what lets the residency layer
// (package tile) convert once per precision epoch instead of once per kernel
// call.
type Matrix32 = Dense[float32]

// NewMatrix32 allocates a zeroed rows×cols float32 matrix with a tight
// stride.
func NewMatrix32(rows, cols int) *Matrix32 { return newDense[float32](rows, cols) }

// RoundFrom overwrites m with src rounded to T: the tile promotion
// conversion. Shapes must match exactly.
func (m *Dense[T]) RoundFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: RoundFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		d, s := m.Row(i), src.Row(i)
		for j, v := range s {
			d[j] = T(v)
		}
	}
}

// WidenInto overwrites dst with float64(m): the demotion conversion. Every
// float32 is exactly representable, so the widening is lossless. Shapes must
// match exactly.
func (m *Dense[T]) WidenInto(dst *Matrix) {
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
