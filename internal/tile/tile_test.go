package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/mat"
)

func randDense(rng *rand.Rand, n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGridOwnerBlockCyclic(t *testing.T) {
	g := NewGrid(4, 4)
	if g.Nodes() != 16 {
		t.Fatal("Nodes")
	}
	// Paper layout: owner is periodic with period p in rows, q in cols.
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if g.Owner(i, j) != g.Owner(i+4, j) || g.Owner(i, j) != g.Owner(i, j+4) {
				t.Fatal("block-cyclic periodicity violated")
			}
		}
	}
	if g.Owner(0, 0) != 0 || g.Owner(1, 0) != 4 || g.Owner(0, 1) != 1 {
		t.Fatal("owner rank layout unexpected")
	}
}

func TestGridOwnerBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := 1+rng.Intn(4), 1+rng.Intn(4)
		g := NewGrid(p, q)
		nt := p * q * (1 + rng.Intn(3))
		counts := make([]int, g.Nodes())
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				counts[g.Owner(i, j)]++
			}
		}
		// With nt a multiple of p and q, the distribution is perfectly even.
		want := nt * nt / g.Nodes()
		for _, c := range counts {
			if c != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDiagonalDomain(t *testing.T) {
	g := NewGrid(4, 1)
	rows := g.DiagonalDomain(2, 10)
	want := []int{2, 6}
	if len(rows) != len(want) {
		t.Fatalf("domain %v, want %v", rows, want)
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("domain %v, want %v", rows, want)
		}
	}
	// Every domain row must be owned by the diagonal owner.
	for k := 0; k < 10; k++ {
		for _, i := range g.DiagonalDomain(k, 10) {
			if g.Owner(i, k) != g.Owner(k, k) {
				t.Fatalf("row %d of domain %d not on diagonal node", i, k)
			}
		}
	}
}

func TestPanelDomainsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		g := NewGrid(p, 1+rng.Intn(3))
		mt := 1 + rng.Intn(12)
		k := rng.Intn(mt)
		doms := g.PanelDomains(k, mt)
		seen := map[int]bool{}
		for d, rows := range doms {
			if len(rows) == 0 {
				return false
			}
			r0 := rows[0] % g.P
			for _, i := range rows {
				if i < k || i >= mt || seen[i] || i%g.P != r0 {
					return false
				}
				seen[i] = true
			}
			// The first listed domain must be the diagonal domain.
			if d == 0 && r0 != k%g.P {
				return false
			}
		}
		return len(seen) == mt-k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range [][2]int{{1, 4}, {3, 2}, {5, 8}} {
		nt, nb := cfg[0], cfg[1]
		a := randDense(rng, nt*nb)
		tm := FromDense(a, nb)
		if tm.MT != nt || tm.NT != nt || tm.NB != nb || tm.N() != nt*nb {
			t.Fatalf("shape %d,%d,%d", tm.MT, tm.NT, tm.NB)
		}
		back := tm.ToDense()
		if !mat.Equal(a, back) {
			t.Fatalf("round trip failed for nt=%d nb=%d", nt, nb)
		}
	}
}

func TestFromDenseRejectsNonMultiple(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromDense(mat.New(10, 10), 4)
}

// TestLoadDensePadsWithIdentity: loading the tile rows in any order tiles A
// into diag(A, I) at the padded order, copies the same padded matrix into
// a0, and returns a's row-sum and entry maxima, pad rows excluded.
func TestLoadDensePadsWithIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 5, 8, 11} {
		nb := 4
		mt := (n + nb - 1) / nb
		a := randDense(rng, n)
		want := mat.Identity(mt * nb)
		want.View(0, 0, n, n).CopyFrom(a)
		tm, a0 := New(mt, mt, nb), mat.New(mt*nb, mt*nb)
		normInf, maxAbs := 0.0, 0.0
		for bi := mt - 1; bi >= 0; bi-- {
			s, m := tm.LoadDense(bi, a, a0)
			normInf, maxAbs = math.Max(normInf, s), math.Max(maxAbs, m)
		}
		if !mat.Equal(tm.ToDense(), want) || !mat.Equal(a0, want) {
			t.Fatalf("n=%d: tiles or copy differ from diag(A, I)", n)
		}
		if normInf != a.NormInf() || maxAbs != a.NormMax() {
			t.Fatalf("n=%d: norms %g, %g want %g, %g", n, normInf, maxAbs, a.NormInf(), a.NormMax())
		}
	}
}

func TestTileAliasesMatrix(t *testing.T) {
	tm := New(2, 2, 3)
	tm.Tile(1, 1).Set(0, 0, 42)
	if tm.ToDense().At(3, 3) != 42 {
		t.Fatal("tile write not reflected in dense view")
	}
}

func TestNorm1MatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 12)
	tm := FromDense(a, 4)
	if tm.Norm1() != a.Norm1() {
		t.Fatal("tiled Norm1 mismatch")
	}
	if tm.TileNorm1(1, 2) != a.View(4, 8, 4, 4).Norm1() {
		t.Fatal("TileNorm1 mismatch")
	}
}

func TestStackUnstackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 20)
	tm := FromDense(a, 4)
	orig := tm.Clone()
	rows := []int{0, 2, 4}
	s := tm.StackRows(rows, 1)
	if s.Rows != 12 || s.Cols != 4 {
		t.Fatalf("stack shape %dx%d", s.Rows, s.Cols)
	}
	// Scramble then restore.
	for i := range s.Data {
		s.Data[i] *= 2
	}
	tm.UnstackRows(s, rows, 1)
	for _, i := range rows {
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if tm.Tile(i, 1).At(r, c) != 2*orig.Tile(i, 1).At(r, c) {
					t.Fatal("unstack placed wrong values")
				}
			}
		}
	}
	// Other tiles untouched.
	if !mat.Equal(tm.Tile(1, 1), orig.Tile(1, 1)) {
		t.Fatal("unstack touched unrelated tile")
	}
}

func TestCloneIndependent(t *testing.T) {
	tm := New(2, 2, 2)
	c := tm.Clone()
	c.Tile(0, 0).Set(0, 0, 5)
	if tm.Tile(0, 0).At(0, 0) != 0 {
		t.Fatal("clone shares tiles")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	v := VectorFromSlice(x, 2)
	if v.MT != 3 || v.W != 1 {
		t.Fatalf("vector shape %d %d", v.MT, v.W)
	}
	got := v.ToSlice()
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("vector round trip failed")
		}
	}
}

func TestVectorStackUnstack(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	v := VectorFromSlice(x, 2)
	s := v.StackRows([]int{1, 3})
	if s.At(0, 0) != 3 || s.At(1, 0) != 4 || s.At(2, 0) != 7 || s.At(3, 0) != 8 {
		t.Fatalf("stacked vector wrong: %v", s.Data)
	}
	for i := range s.Data {
		s.Data[i] = -s.Data[i]
	}
	v.UnstackRows(s, []int{1, 3})
	got := v.ToSlice()
	want := []float64{1, 2, -3, -4, 5, 6, -7, -8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unstacked vector %v", got)
		}
	}
}

func TestVectorClone(t *testing.T) {
	v := VectorFromSlice([]float64{1, 2}, 2)
	c := v.Clone()
	c.Tile(0).Set(0, 0, 9)
	if v.Tile(0).At(0, 0) != 1 {
		t.Fatal("vector clone shares tiles")
	}
}
