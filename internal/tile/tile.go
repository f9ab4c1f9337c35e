// Package tile provides the tiled-matrix representation used by all the
// factorization algorithms: an n×n grid of nb×nb dense tiles, together with
// the standard 2-D block-cyclic distribution of tiles onto a virtual p×q
// process grid (§II of the paper).
package tile

import (
	"fmt"

	"luqr/internal/mat"
)

// Grid is a virtual p×q process grid. Tile (i, j) is owned by process
// (i mod p, j mod q), the classical 2-D block-cyclic distribution that
// balances load for both the LU and the QR steps.
type Grid struct {
	P int // process rows
	Q int // process columns
}

// NewGrid validates and returns a p×q grid.
func NewGrid(p, q int) Grid {
	if p < 1 || q < 1 {
		panic(fmt.Sprintf("tile: invalid grid %dx%d", p, q))
	}
	return Grid{P: p, Q: q}
}

// Nodes returns the number of processes in the grid.
func (g Grid) Nodes() int { return g.P * g.Q }

// Owner returns the rank (0..P·Q−1) owning tile (i, j).
func (g Grid) Owner(i, j int) int {
	return (i%g.P)*g.Q + j%g.Q
}

// DiagonalDomain returns the rows of panel k that live on the node owning
// the diagonal tile (k, k): all i in [k, mt) with owner(i, k) == owner(k, k).
// These are the rows among which the LU step may pivot without inter-node
// communication.
func (g Grid) DiagonalDomain(k, mt int) []int {
	var rows []int
	for i := k; i < mt; i += 1 {
		if i%g.P == k%g.P {
			rows = append(rows, i)
		}
	}
	return rows
}

// PanelDomains groups the rows i in [k, mt) of panel k by owning grid row,
// in order of first appearance (the diagonal domain first). Each group is
// one "domain" in the paper's sense: the set of panel tiles local to one
// node row. There are at most min(P, mt−k) of them, so a grid taller than
// the matrix costs nothing.
func (g Grid) PanelDomains(k, mt int) [][]int {
	order := make([]int, 0, max(0, min(g.P, mt-k)))
	byRow := make(map[int][]int)
	for i := k; i < mt; i++ {
		r := i % g.P
		if _, seen := byRow[r]; !seen {
			order = append(order, r)
		}
		byRow[r] = append(byRow[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, byRow[r])
	}
	return out
}

// Matrix is a tiled matrix: MT×NT tiles, each NB×NB. Tiles are individually
// allocated so that a task runtime can treat each as an independent datum.
type Matrix struct {
	MT, NT int // tiles per column / per row
	NB     int // tile order
	Tiles  [][]*mat.Matrix
}

// New allocates a zeroed tiled matrix.
func New(mt, nt, nb int) *Matrix {
	if mt < 0 || nt < 0 || nb < 1 {
		panic(fmt.Sprintf("tile: invalid tiled shape %dx%d nb=%d", mt, nt, nb))
	}
	t := &Matrix{MT: mt, NT: nt, NB: nb, Tiles: make([][]*mat.Matrix, mt)}
	for i := range t.Tiles {
		t.Tiles[i] = make([]*mat.Matrix, nt)
		for j := range t.Tiles[i] {
			t.Tiles[i][j] = mat.New(nb, nb)
		}
	}
	return t
}

// FromDense tiles an N×N dense matrix with tile order nb. N must be a
// multiple of nb (the paper makes the same simplifying assumption, §II-D.2).
func FromDense(a *mat.Matrix, nb int) *Matrix {
	if a.Rows%nb != 0 || a.Cols%nb != 0 {
		panic(fmt.Sprintf("tile: %dx%d not tileable by nb=%d", a.Rows, a.Cols, nb))
	}
	t := New(a.Rows/nb, a.Cols/nb, nb)
	for bi := 0; bi < t.MT; bi++ {
		t.LoadDense(bi, a, nil)
	}
	return t
}

// LoadDense fills tile row bi of the freshly allocated (zero) t from the
// n×n dense matrix a, n ≤ t.N(). Rows and columns past n take the
// identity: the padding diag(A, I) that lets N be any order (§II-D.2). A
// non-nil a0, a zero t.N()×t.N() matrix, receives the same padded rows, so
// one read of a both tiles it and keeps a dense copy. It returns the
// largest absolute row sum and the largest |a_ij| over a's rows in the band,
// pad rows excluded (mat.RowAbsStats). Distinct tile rows write distinct
// memory, so the rows of t may be loaded concurrently.
func (t *Matrix) LoadDense(bi int, a, a0 *mat.Matrix) (normInf, maxAbs float64) {
	nb, n := t.NB, a.Rows
	if a.Cols != n || n > t.N() || t.MT != t.NT {
		panic(fmt.Sprintf("tile: LoadDense of %dx%d into %dx%d tiles of order %d", a.Rows, a.Cols, t.MT, t.NT, nb))
	}
	// Copy four rows, then take their norms while the rows are in cache.
	const group = 4
	for g := bi * nb; g < (bi+1)*nb; g += group {
		for i := g; i < g+group && i < (bi+1)*nb; i++ {
			r := i - bi*nb
			if i >= n {
				t.Tiles[bi][bi].Set(r, r, 1)
				if a0 != nil {
					a0.Set(i, i, 1)
				}
				continue
			}
			row := a.Row(i)
			for j := 0; j*nb < n; j++ {
				copy(t.Tiles[bi][j].Row(r), row[j*nb:min((j+1)*nb, n)])
			}
			if a0 != nil {
				copy(a0.Row(i), row)
			}
		}
		if g < n {
			s, m := mat.RowAbsStats(a, g, min(g+group, (bi+1)*nb, n))
			if s > normInf {
				normInf = s
			}
			if m > maxAbs {
				maxAbs = m
			}
		}
	}
	return normInf, maxAbs
}

// ToDense reassembles the dense matrix.
func (t *Matrix) ToDense() *mat.Matrix {
	a := mat.New(t.MT*t.NB, t.NT*t.NB)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			a.View(i*t.NB, j*t.NB, t.NB, t.NB).CopyFrom(t.Tiles[i][j])
		}
	}
	return a
}

// Tile returns tile (i, j).
func (t *Matrix) Tile(i, j int) *mat.Matrix {
	if i < 0 || i >= t.MT || j < 0 || j >= t.NT {
		panic(fmt.Sprintf("tile: Tile(%d,%d) out of range %dx%d", i, j, t.MT, t.NT))
	}
	return t.Tiles[i][j]
}

// N returns the dense order of a square tiled matrix.
func (t *Matrix) N() int { return t.NT * t.NB }

// Clone deep-copies the tiled matrix.
func (t *Matrix) Clone() *Matrix {
	c := New(t.MT, t.NT, t.NB)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			c.Tiles[i][j].CopyFrom(t.Tiles[i][j])
		}
	}
	return c
}

// Norm1 returns the induced 1-norm of the full matrix.
func (t *Matrix) Norm1() float64 { return t.ToDense().Norm1() }

// TileNorm1 returns ‖A_ij‖₁ of a single tile — the quantity exchanged by the
// Max and Sum criteria.
func (t *Matrix) TileNorm1(i, j int) float64 { return t.Tile(i, j).Norm1() }

// StackRows copies the tiles (rows[0], j), (rows[1], j), … into a newly
// allocated (len(rows)·NB)×NB matrix — the "stacked domain panel" that the
// LU step factors with partial pivoting.
func (t *Matrix) StackRows(rows []int, j int) *mat.Matrix {
	s := mat.New(len(rows)*t.NB, t.NB)
	for r, i := range rows {
		s.View(r*t.NB, 0, t.NB, t.NB).CopyFrom(t.Tile(i, j))
	}
	return s
}

// UnstackRows scatters a stacked matrix produced by StackRows back into the
// tiles (rows[r], j).
func (t *Matrix) UnstackRows(s *mat.Matrix, rows []int, j int) {
	if s.Rows != len(rows)*t.NB || s.Cols != t.NB {
		panic(fmt.Sprintf("tile: UnstackRows shape %dx%d for %d rows nb=%d", s.Rows, s.Cols, len(rows), t.NB))
	}
	for r, i := range rows {
		t.Tile(i, j).CopyFrom(s.View(r*t.NB, 0, t.NB, t.NB))
	}
}

// Vector is a tiled column vector: MT tiles of shape NB×W. It carries the
// right-hand side(s) through the factorization (the paper augments A with b,
// §II-D.1).
type Vector struct {
	MT, NB, W int
	Tiles     []*mat.Matrix
}

// NewVector allocates a zeroed tiled vector of width w.
func NewVector(mt, nb, w int) *Vector {
	v := &Vector{MT: mt, NB: nb, W: w, Tiles: make([]*mat.Matrix, mt)}
	for i := range v.Tiles {
		v.Tiles[i] = mat.New(nb, w)
	}
	return v
}

// VectorFromSlice tiles a dense vector (width 1).
func VectorFromSlice(x []float64, nb int) *Vector {
	if len(x)%nb != 0 {
		panic(fmt.Sprintf("tile: vector length %d not tileable by %d", len(x), nb))
	}
	v := NewVector(len(x)/nb, nb, 1)
	for i := 0; i < v.MT; i++ {
		for r := 0; r < nb; r++ {
			v.Tiles[i].Set(r, 0, x[i*nb+r])
		}
	}
	return v
}

// ToSlice flattens a width-1 tiled vector.
func (v *Vector) ToSlice() []float64 {
	if v.W != 1 {
		panic("tile: ToSlice on multi-column vector")
	}
	x := make([]float64, v.MT*v.NB)
	for i := 0; i < v.MT; i++ {
		for r := 0; r < v.NB; r++ {
			x[i*v.NB+r] = v.Tiles[i].At(r, 0)
		}
	}
	return x
}

// Tile returns tile i of the vector.
func (v *Vector) Tile(i int) *mat.Matrix {
	if i < 0 || i >= v.MT {
		panic(fmt.Sprintf("tile: Vector.Tile(%d) out of range %d", i, v.MT))
	}
	return v.Tiles[i]
}

// Clone deep-copies the vector.
func (v *Vector) Clone() *Vector {
	c := NewVector(v.MT, v.NB, v.W)
	for i := range v.Tiles {
		c.Tiles[i].CopyFrom(v.Tiles[i])
	}
	return c
}

// StackRows stacks vector tiles rows[0..] into one (len·NB)×W matrix.
func (v *Vector) StackRows(rows []int) *mat.Matrix {
	s := mat.New(len(rows)*v.NB, v.W)
	for r, i := range rows {
		s.View(r*v.NB, 0, v.NB, v.W).CopyFrom(v.Tile(i))
	}
	return s
}

// StackRowsInto copies vector tiles rows[0..] into the caller-provided
// (len·NB)×W matrix s — the allocation-free variant of StackRows. Every
// element of s is overwritten, so an unzeroed pooled buffer is safe.
func (v *Vector) StackRowsInto(s *mat.Matrix, rows []int) {
	if s.Rows != len(rows)*v.NB || s.Cols != v.W {
		panic(fmt.Sprintf("tile: Vector.StackRowsInto shape %dx%d for %d rows nb=%d w=%d", s.Rows, s.Cols, len(rows), v.NB, v.W))
	}
	for r, i := range rows {
		s.View(r*v.NB, 0, v.NB, v.W).CopyFrom(v.Tile(i))
	}
}

// UnstackRows scatters a stacked matrix back into vector tiles.
func (v *Vector) UnstackRows(s *mat.Matrix, rows []int) {
	for r, i := range rows {
		v.Tile(i).CopyFrom(s.View(r*v.NB, 0, v.NB, v.W))
	}
}

// Ref names one tile of a factorization's operands: matrix tile (I, J), or
// right-hand-side tile I. Build it with At or RHS; one Ref type addresses
// both kinds, so the residency store and the task layer take it alike.
type Ref struct{ I, J int }

// rhsCol is the J of a right-hand-side tile's Ref.
const rhsCol = -1

// At names matrix tile (i, j).
func At(i, j int) Ref { return Ref{i, j} }

// RHS names right-hand-side tile i.
func RHS(i int) Ref { return Ref{i, rhsCol} }

// IsRHS reports whether t names a right-hand-side tile.
func (t Ref) IsRHS() bool { return t.J == rhsCol }

// Of returns the float64 tile t names: a tile of a, or of rhs.
func (t Ref) Of(a *Matrix, rhs *Vector) *mat.Matrix {
	if t.IsRHS() {
		return rhs.Tile(t.I)
	}
	return a.Tile(t.I, t.J)
}
