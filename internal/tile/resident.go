package tile

import (
	"sync"
	"sync/atomic"
	"time"

	"luqr/internal/mat"
)

// Float32 tile residency: the conversion-amortization layer behind the
// mixed-precision path.
//
// Each tile of a factorization carries one of three precision states:
//
//	f64    — only the float64 array is valid (no live f32 image)
//	clean  — the f32 image is valid and the float64 array holds exactly its
//	         widened values (either may be read; the f64 array is the
//	         epoch's master copy)
//	dirty  — the f32 image is newer than the float64 array (the image is
//	         the truth; the f64 array is the pre-epoch master copy)
//
// A tile is promoted (f64 → clean/dirty, one rounding pass) the first time a
// float32 step touches it and then stays resident across consecutive f32
// steps — kernels read and write the image directly through the resident
// entry points in blas/lapack. It is demoted (dirty → f64, one widening
// pass) only at an epoch boundary: the criterion flips the step back to
// f64, an excursion forces the step to rerun in f64, or the run ends
// (Flush). Because float32 widens to float64 exactly, demotion loses
// nothing, and the conversion count is once per tile per epoch rather than
// once per task.
//
// Counter taxonomy: Epochs counts tile promotions (f64 → resident);
// To32/To64 count the rounding and widening passes (dropping a clean image
// is free and uncounted). The step-resident stack path splits the two
// moments: AcquireRowStack32 counts the rounding pass when it rounds a
// stateF64 tile into the stack, CommitRowStack32 counts the epoch when the
// stack view becomes the tile's image — so an abandoned stack leaves a
// counted rounding pass but no epoch.
type Residency struct {
	a   *Matrix
	rhs *Vector // may be nil

	am [][]entry
	vm []entry

	epochs atomic.Int64 // tile promotions f64 → resident
	to32   atomic.Int64 // rounding passes (promotion with existing f64 content)
	to64   atomic.Int64 // widening passes (demotion of a dirty image)
	convNS atomic.Int64 // wall time spent inside conversion passes
}

const (
	stateF64   int8 = iota // no live image
	stateClean             // image valid, f64 array identical
	stateDirty             // image newer than f64 array
)

type entry struct {
	mu    sync.Mutex
	state int8
	img   *mat.Matrix32 // replaced at each promotion; may view a committed step stack
}

// Meter accumulates conversion nanoseconds on behalf of one task, so the
// task body can charge them to its trace record. Residency methods accept a
// nil Meter when the caller does not attribute conversion time.
type Meter struct{ NS int64 }

func (m *Meter) add(ns int64) {
	if m != nil {
		m.NS += ns
	}
}

// NewResidency creates the residency tracker for a tiled matrix and an
// optional right-hand side. All tiles start in the f64 state.
func NewResidency(a *Matrix, rhs *Vector) *Residency {
	r := &Residency{a: a, rhs: rhs}
	r.am = make([][]entry, a.MT)
	for i := range r.am {
		r.am[i] = make([]entry, a.NT)
	}
	if rhs != nil {
		r.vm = make([]entry, rhs.MT)
	}
	return r
}

// promote installs a fresh image of the f64 tile t, rounded from its current
// float64 content. It never rounds into the previous image: read-only tasks
// of an earlier epoch may still hold that one (a sibling update task reads
// the shared V tile while another's demotion ends the tile's epoch), so the
// old image stays untouched until its last reader drops it.
func (r *Residency) promote(e *entry, t *mat.Matrix, m *Meter) {
	img := mat.NewMatrix32(t.Rows, t.Cols)
	start := time.Now()
	img.RoundFrom(t)
	ns := time.Since(start).Nanoseconds()
	e.img = img
	r.epochs.Add(1)
	r.to32.Add(1)
	r.convNS.Add(ns)
	m.add(ns)
}

// demote widens a dirty image back into the f64 tile.
func (r *Residency) demote(e *entry, t *mat.Matrix, m *Meter) {
	start := time.Now()
	e.img.WidenInto(t)
	ns := time.Since(start).Nanoseconds()
	r.to64.Add(1)
	r.convNS.Add(ns)
	m.add(ns)
}

func (r *Residency) read32(e *entry, t *mat.Matrix, m *Meter) *mat.Matrix32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateF64 {
		r.promote(e, t, m)
		e.state = stateClean
	}
	return e.img
}

func (r *Residency) write32(e *entry, t *mat.Matrix, m *Meter) (*mat.Matrix32, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	wasDirty := e.state == stateDirty
	if e.state == stateF64 {
		r.promote(e, t, m)
	}
	e.state = stateDirty
	return e.img, wasDirty
}

func (r *Residency) ensureF64(e *entry, t *mat.Matrix, m *Meter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDirty {
		r.demote(e, t, m)
	}
	e.state = stateF64
}

func (r *Residency) discard32(e *entry) {
	e.mu.Lock()
	e.state = stateF64
	e.mu.Unlock()
}

// Read32 returns tile (i, j)'s f32 image for read-only kernel access,
// promoting the tile if this is its first resident touch of the epoch.
func (r *Residency) Read32(i, j int, m *Meter) *mat.Matrix32 {
	return r.read32(&r.am[i][j], r.a.Tile(i, j), m)
}

// Write32 returns tile (i, j)'s f32 image for read-write kernel access and
// reports whether the image was already dirty before this acquisition — the
// excursion harness uses that to pick between snapshot-restore (dirty
// before: the f64 array predates the epoch) and plain discard (clean or f64
// before: the f64 array is the master copy).
func (r *Residency) Write32(i, j int, m *Meter) (*mat.Matrix32, bool) {
	return r.write32(&r.am[i][j], r.a.Tile(i, j), m)
}

// EnsureF64 makes tile (i, j)'s float64 array current and drops the image
// from service: a dirty image is widened back (one counted demotion), a
// clean image is dropped for free. Every f64 task must call this for every
// tile it touches before running; on tiles already in the f64 state it is a
// single mutex-protected state check.
func (r *Residency) EnsureF64(i, j int, m *Meter) {
	r.ensureF64(&r.am[i][j], r.a.Tile(i, j), m)
}

// Discard32 invalidates tile (i, j)'s image without conversion, returning
// the tile to the f64 state. Only valid when the f64 array is known current
// (the excursion harness's clean/f64-before restore rule).
func (r *Residency) Discard32(i, j int) {
	r.discard32(&r.am[i][j])
}

// StoreF64 overwrites tile (i, j)'s float64 array with src and invalidates
// any image — the resident-safe form of Tile(i,j).CopyFrom(src) used by the
// QR-path restore task.
func (r *Residency) StoreF64(i, j int, src *mat.Matrix) {
	e := &r.am[i][j]
	e.mu.Lock()
	e.state = stateF64
	r.a.Tile(i, j).CopyFrom(src)
	e.mu.Unlock()
}

// ReadVec32, WriteVec32, EnsureVecF64, DiscardVec32 are the right-hand-side
// analogues of the matrix-tile methods.
func (r *Residency) ReadVec32(i int, m *Meter) *mat.Matrix32 {
	return r.read32(&r.vm[i], r.rhs.Tile(i), m)
}

func (r *Residency) WriteVec32(i int, m *Meter) (*mat.Matrix32, bool) {
	return r.write32(&r.vm[i], r.rhs.Tile(i), m)
}

func (r *Residency) EnsureVecF64(i int, m *Meter) {
	r.ensureF64(&r.vm[i], r.rhs.Tile(i), m)
}

func (r *Residency) DiscardVec32(i int) {
	r.discard32(&r.vm[i])
}

// Read-through queries: criterion and growth-probe tasks need norms of
// tiles that may be resident without disturbing their state. A dirty tile
// is measured over its widened image (bit-identical to what demotion would
// produce); otherwise the float64 array is current and is used directly.

// TileNorm1 returns ‖A_ij‖₁ over the tile's current values.
func (r *Residency) TileNorm1(i, j int) float64 {
	e := &r.am[i][j]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDirty {
		return e.img.Norm1()
	}
	return r.a.Tile(i, j).Norm1()
}

// TileColAbsMax returns max_r |A_ij(r, col)| over the tile's current values.
func (r *Residency) TileColAbsMax(i, j, col int) float64 {
	e := &r.am[i][j]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDirty {
		return e.img.ColAbsMax(col)
	}
	return r.a.Tile(i, j).ColAbsMax(col)
}

// TileNormMax returns max |A_ij| over the tile's current values.
func (r *Residency) TileNormMax(i, j int) float64 {
	e := &r.am[i][j]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDirty {
		return e.img.NormMax()
	}
	return r.a.Tile(i, j).NormMax()
}

// CopyTileInto copies tile (i, j)'s current values into dst (widening a
// dirty image) without changing the tile's state — the backup task's
// read-through.
func (r *Residency) CopyTileInto(dst *mat.Matrix, i, j int) {
	e := &r.am[i][j]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDirty {
		e.img.WidenInto(dst)
		return
	}
	dst.CopyFrom(r.a.Tile(i, j))
}

// Step-resident stacks. A SWPTRSM or panel-factor task works on a stacked
// row panel — column j's tiles at rows, laid out contiguously. Acquire
// builds the stack reading through each tile's state; Commit rebinds the
// tiles' images to views of the stack, so the stack IS the resident storage
// from then on: no scatter-back copy, and a stateF64 tile pays exactly one
// rounding pass per (tile, step) — at acquire — no matter how many stack
// views later kernels touch.

// AcquireRowStack32 returns the stacked float32 panel of column j's tiles
// at rows: a live image is copied, a stateF64 tile is rounded directly into
// its stack slot. Only the rounding branches are timed and charged to the
// conversion meter — copies of already-resident images are plain data
// movement, not conversion. No tile state changes until CommitRowStack32,
// so a caller that abandons the stack (excursion demotion, singular factor)
// leaves every tile exactly as it found it; the rounding work it did is
// still counted, honestly, as conversion that ran.
//
// The stack is allocated fresh, never pooled: after Commit the tiles'
// images alias its views, and the residency entries own its lifetime from
// then on.
func (r *Residency) AcquireRowStack32(rows []int, j int, m *Meter) *mat.Matrix32 {
	nb := r.a.NB
	s := mat.NewMatrix32(len(rows)*nb, nb)
	for ri, i := range rows {
		e := &r.am[i][j]
		dst := s.View(ri*nb, 0, nb, nb)
		e.mu.Lock()
		if e.state == stateF64 {
			start := time.Now()
			dst.RoundFrom(r.a.Tile(i, j))
			ns := time.Since(start).Nanoseconds()
			r.to32.Add(1)
			r.convNS.Add(ns)
			m.add(ns)
		} else {
			dst.CopyFrom(e.img)
		}
		e.mu.Unlock()
	}
	return s
}

// CommitRowStack32 installs an acquired (and now factored or updated) stack
// as column j's resident images: each tile's image is rebound to its stack
// view and marked dirty. A tile entering residency here counts an epoch;
// its rounding pass was already counted at acquire time, and a tile that
// was already resident continues its epoch with no conversion at all.
func (r *Residency) CommitRowStack32(s *mat.Matrix32, rows []int, j int) {
	nb := r.a.NB
	for ri, i := range rows {
		e := &r.am[i][j]
		e.mu.Lock()
		if e.state == stateF64 {
			r.epochs.Add(1)
		}
		e.img = s.View(ri*nb, 0, nb, nb)
		e.state = stateDirty
		e.mu.Unlock()
	}
}

// AcquireVecStack32 is the right-hand-side analogue of AcquireRowStack32.
func (r *Residency) AcquireVecStack32(rows []int, m *Meter) *mat.Matrix32 {
	nb, w := r.rhs.NB, r.rhs.W
	s := mat.NewMatrix32(len(rows)*nb, w)
	for ri, i := range rows {
		e := &r.vm[i]
		dst := s.View(ri*nb, 0, nb, w)
		e.mu.Lock()
		if e.state == stateF64 {
			start := time.Now()
			dst.RoundFrom(r.rhs.Tile(i))
			ns := time.Since(start).Nanoseconds()
			r.to32.Add(1)
			r.convNS.Add(ns)
			m.add(ns)
		} else {
			dst.CopyFrom(e.img)
		}
		e.mu.Unlock()
	}
	return s
}

// CommitVecStack32 is the right-hand-side analogue of CommitRowStack32.
func (r *Residency) CommitVecStack32(s *mat.Matrix32, rows []int) {
	nb, w := r.rhs.NB, r.rhs.W
	for ri, i := range rows {
		e := &r.vm[i]
		e.mu.Lock()
		if e.state == stateF64 {
			r.epochs.Add(1)
		}
		e.img = s.View(ri*nb, 0, nb, w)
		e.state = stateDirty
		e.mu.Unlock()
	}
}

// Flush demotes every dirty tile and drops every image, leaving the plain
// float64 arrays authoritative. Called once after the dataflow engine
// drains, before growth computation, solves, and serialization — which is
// why stored factorizations and digests never see residency.
func (r *Residency) Flush(m *Meter) {
	for i := range r.am {
		for j := range r.am[i] {
			r.ensureF64(&r.am[i][j], r.a.Tile(i, j), m)
		}
	}
	for i := range r.vm {
		r.ensureF64(&r.vm[i], r.rhs.Tile(i), m)
	}
}

// Counters returns the lifetime conversion counters: tile promotions
// (epochs), rounding passes (to32), and widening passes (to64).
func (r *Residency) Counters() (epochs, to32, to64 int64) {
	return r.epochs.Load(), r.to32.Load(), r.to64.Load()
}

// ConvNS returns the total wall time spent in conversion passes, in
// nanoseconds.
func (r *Residency) ConvNS() int64 { return r.convNS.Load() }
