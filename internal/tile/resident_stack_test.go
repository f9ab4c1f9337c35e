package tile

import (
	"math/rand"
	"testing"
)

// Accounting contract of the step-resident stack API: acquiring a stack of
// stateF64 tiles counts one rounding pass per tile (and no epochs — those
// belong to commit), committing counts one epoch per newly resident tile,
// and a second acquire+commit over the now-resident column converts nothing
// at all. Values must read through exactly: a committed stack's views ARE
// the images, and EnsureF64 must widen them back bit-identically.
func TestAcquireCommitRowStackAccounting(t *testing.T) {
	const nb, mt, nt = 8, 4, 4
	rng := rand.New(rand.NewSource(41))
	a := New(mt, nt, nb)
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			tl := a.Tile(i, j)
			for r := 0; r < nb; r++ {
				row := tl.Row(r)
				for c := range row {
					row[c] = rng.NormFloat64()
				}
			}
		}
	}
	res := NewResidency(a, nil)
	rows := []int{1, 2, 3}
	j := 2
	refs := []Ref{At(1, j), At(2, j), At(3, j)}
	m := &Meter{}

	s := res.AcquireStack32(refs, m)
	epochs, to32, to64 := res.Counters()
	if epochs != 0 || to32 != int64(len(rows)) || to64 != 0 {
		t.Fatalf("after acquire: epochs=%d to32=%d to64=%d, want 0/%d/0", epochs, to32, to64, len(rows))
	}
	if m.NS <= 0 || res.ConvNS() < m.NS {
		t.Fatalf("acquire rounding passes not timed: meter=%dns convNS=%dns", m.NS, res.ConvNS())
	}
	// The stack must hold the rounded tiles.
	for ri, i := range rows {
		for r := 0; r < nb; r++ {
			for c := 0; c < nb; c++ {
				if s.At(ri*nb+r, c) != float32(a.Tile(i, j).At(r, c)) {
					t.Fatalf("stack row %d (tile %d) not the rounded tile", ri, i)
				}
			}
		}
	}

	// Abandoning an acquired stack must leave the tiles untouched: a fresh
	// acquire still sees stateF64 tiles and rounds again.
	_ = res.AcquireStack32(refs, nil)
	if _, to32b, _ := res.Counters(); to32b != 2*int64(len(rows)) {
		t.Fatalf("abandoned stack changed tile state: to32=%d want %d", to32b, 2*len(rows))
	}

	res.CommitStack32(s, refs)
	epochs, to32, to64 = res.Counters()
	if epochs != int64(len(rows)) || to32 != 2*int64(len(rows)) || to64 != 0 {
		t.Fatalf("after commit: epochs=%d to32=%d to64=%d", epochs, to32, to64)
	}

	// Mutate through the stack; reads must see it (the views are the images).
	s.Set(0, 0, 7.5)
	if got := res.Read32(refs[0], nil); got.At(0, 0) != 7.5 {
		t.Fatalf("committed stack view is not the tile image: Read32 saw %v", got.At(0, 0))
	}

	// Re-acquire + commit over the resident column: pure copies, no new
	// rounding passes, no new epochs.
	s2 := res.AcquireStack32(refs, nil)
	res.CommitStack32(s2, refs)
	epochs, to32, to64 = res.Counters()
	if epochs != int64(len(rows)) || to32 != 2*int64(len(rows)) || to64 != 0 {
		t.Fatalf("resident re-acquire converted: epochs=%d to32=%d to64=%d", epochs, to32, to64)
	}
	if got := res.Read32(refs[0], nil); got.At(0, 0) != 7.5 {
		t.Fatalf("re-committed stack lost the image value: %v", got.At(0, 0))
	}

	// Demotion widens the stack views back into the f64 tiles.
	for _, t := range refs {
		res.EnsureF64(t, nil)
	}
	if a.Tile(rows[0], j).At(0, 0) != 7.5 {
		t.Fatalf("EnsureF64 did not widen the committed stack view")
	}
	epochs, to32, to64 = res.Counters()
	if to64 != int64(len(rows)) {
		t.Fatalf("demotion passes: to64=%d want %d", to64, len(rows))
	}
}

// TestAcquireCommitVecStackAccounting is the right-hand-side analogue.
func TestAcquireCommitVecStackAccounting(t *testing.T) {
	const nb, mt, w = 8, 4, 3
	rng := rand.New(rand.NewSource(43))
	a := New(mt, mt, nb)
	rhs := NewVector(mt, nb, w)
	for i := 0; i < mt; i++ {
		tl := rhs.Tile(i)
		for r := 0; r < nb; r++ {
			row := tl.Row(r)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
		}
	}
	res := NewResidency(a, rhs)
	rows := []int{0, 2}
	refs := []Ref{RHS(0), RHS(2)}

	s := res.AcquireStack32(refs, nil)
	if epochs, to32, _ := res.Counters(); epochs != 0 || to32 != int64(len(rows)) {
		t.Fatalf("after acquire: epochs=%d to32=%d", epochs, to32)
	}
	res.CommitStack32(s, refs)
	if epochs, to32, _ := res.Counters(); epochs != int64(len(rows)) || to32 != int64(len(rows)) {
		t.Fatalf("after commit: epochs=%d to32=%d", epochs, to32)
	}
	s.Set(nb, 1, -2.25) // tile rows[1], row 0
	if got := res.Read32(refs[1], nil); got.At(0, 1) != -2.25 {
		t.Fatalf("committed vec stack view is not the tile image")
	}
	s2 := res.AcquireStack32(refs, nil)
	res.CommitStack32(s2, refs)
	if epochs, to32, _ := res.Counters(); epochs != int64(len(rows)) || to32 != int64(len(rows)) {
		t.Fatalf("resident vec re-acquire converted: epochs=%d to32=%d", epochs, to32)
	}
	var m Meter
	res.Flush(&m)
	if rhs.Tile(rows[1]).At(0, 1) != -2.25 {
		t.Fatalf("Flush did not widen the committed vec stack view")
	}
}
