package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m.Data)
	}
	// FromSlice copies: mutating the source must not affect the matrix.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice did not copy its input")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if m.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %g", i, j, m.At(i, j))
			}
		}
	}
}

func TestViewAliasesParent(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("view write not visible in parent")
	}
	m.Set(2, 2, 9)
	if v.At(1, 1) != 9 {
		t.Fatal("parent write not visible in view")
	}
	if v.Stride != m.Stride {
		t.Fatal("view must inherit parent stride")
	}
}

func TestViewBounds(t *testing.T) {
	m := New(4, 4)
	for _, bad := range [][4]int{{-1, 0, 1, 1}, {0, -1, 1, 1}, {3, 3, 2, 1}, {0, 0, 5, 1}, {0, 0, 1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("View%v should panic", bad)
				}
			}()
			m.View(bad[0], bad[1], bad[2], bad[3])
		}()
	}
}

// TestAccessorPanicMessages: an out-of-range At, Set, View or Row panics
// with an error naming the call and the matrix's shape.
func TestAccessorPanicMessages(t *testing.T) {
	m := New(4, 3)
	for want, f := range map[string]func(){
		"mat: At(4,0) out of range 4x3":       func() { m.At(4, 0) },
		"mat: Set(0,3) out of range 4x3":      func() { m.Set(0, 3, 1) },
		"mat: View(1,1,4,1) out of range 4x3": func() { m.View(1, 1, 4, 1) },
		"mat: Row(-1) out of range 4":         func() { m.Row(-1) },
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || err.Error() != want {
					t.Errorf("panic %v, want %q", err, want)
				}
			}()
			f()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 5, 7)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatal("clone differs from original")
	}
	c.Set(0, 0, 1234)
	if m.At(0, 0) == 1234 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCloneOfViewTightStride(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 6, 6)
	v := m.View(2, 3, 3, 2)
	c := v.Clone()
	if c.Stride != 2 {
		t.Fatalf("clone stride = %d, want tight 2", c.Stride)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != m.At(2+i, 3+j) {
				t.Fatal("clone of view has wrong contents")
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 4, 6)
	tr := m.T()
	if tr.Rows != 6 || tr.Cols != 4 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose content mismatch")
			}
		}
	}
	if !Equal(m, tr.T()) {
		t.Fatal("double transpose is not identity")
	}
}

func TestNormsKnownValues(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -2, -3, 4})
	if got := m.Norm1(); got != 6 { // max col sum: |−2|+|4| = 6
		t.Fatalf("Norm1 = %g, want 6", got)
	}
	if got := m.NormInf(); got != 7 { // max row sum: 3+4
		t.Fatalf("NormInf = %g, want 7", got)
	}
	if got := m.NormMax(); got != 4 {
		t.Fatalf("NormMax = %g, want 4", got)
	}
	if got := m.NormFro(); math.Abs(got-math.Sqrt(30)) > 1e-15 {
		t.Fatalf("NormFro = %g, want sqrt(30)", got)
	}
	cols := make([]float64, 2)
	if m.ColsAbsMax(cols); cols[0] != 3 || cols[1] != 4 {
		t.Fatalf("ColsAbsMax = %v, want [3 4]", cols)
	}
}

// colAbsMax is ColsAbsMax's definition for one column: the largest |a(i,j)|
// down the column, or its first NaN, made positive.
func colAbsMax[T Float](m *Dense[T], j int) float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		a := math.Abs(float64(m.At(i, j)))
		if math.IsNaN(a) {
			return a
		}
		if a > max {
			max = a
		}
	}
	return max
}

// TestColsAbsMaxMatchesColumnScan: the one-pass column maxima equal a scan
// down each column bit for bit, on a view and in both precisions, with
// NaNs of different payloads and signs stacked in some columns, where the
// first one down the column must win.
func TestColsAbsMaxMatchesColumnScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(9, 7)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	nan1, nan2 := math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff8000000000002)
	a.Set(1, 2, nan1)
	a.Set(6, 2, nan2)
	a.Set(4, 3, nan2)
	a.Set(2, 5, math.Inf(-1))
	a.Set(8, 5, nan1)
	v := a.View(1, 1, 8, 5)
	check := func(name string, got []float64, want func(j int) float64) {
		for j := range got {
			if w := want(j); math.Float64bits(got[j]) != math.Float64bits(w) {
				t.Errorf("%s column %d: %v (%#x), want %v (%#x)", name, j, got[j], math.Float64bits(got[j]), w, math.Float64bits(w))
			}
		}
	}
	got := make([]float64, v.Cols)
	v.ColsAbsMax(got)
	check("float64 view", got, func(j int) float64 { return colAbsMax(v, j) })
	a32 := NewMatrix32(a.Rows, a.Cols)
	a32.RoundFrom(a)
	v32 := a32.View(1, 1, 8, 5)
	v32.ColsAbsMax(got)
	check("float32 view", got, func(j int) float64 { return colAbsMax(v32, j) })
}

func TestNorm1EqualsTransposeNormInf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		return math.Abs(m.Norm1()-m.T().NormInf()) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		b := randomMatrix(rng, r, c)
		s := New(r, c)
		for i := range s.Data {
			s.Data[i] = a.Data[i] + b.Data[i]
		}
		const tol = 1e-12
		return s.Norm1() <= a.Norm1()+b.Norm1()+tol &&
			s.NormInf() <= a.NormInf()+b.NormInf()+tol &&
			s.NormFro() <= a.NormFro()+b.NormFro()+tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapRows(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	m.SwapRows(0, 2)
	want := FromSlice(3, 2, []float64{5, 6, 3, 4, 1, 2})
	if !Equal(m, want) {
		t.Fatalf("SwapRows got %v", m.Data)
	}
	m.SwapRows(1, 1) // no-op
	if !Equal(m, want) {
		t.Fatal("SwapRows(i,i) changed the matrix")
	}
}

func TestMaxDiff(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{1, 2.5, 3, 3})
	if got := MaxDiff(a, b); got != 1 {
		t.Fatalf("MaxDiff = %g, want 1", got)
	}
}

func TestEqualNaNHandling(t *testing.T) {
	a := FromSlice(1, 2, []float64{math.NaN(), 1})
	b := FromSlice(1, 2, []float64{math.NaN(), 1})
	if !Equal(a, b) {
		t.Fatal("Equal should treat NaN==NaN for comparison purposes")
	}
}

func TestIsFinite(t *testing.T) {
	m := New(2, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix should be finite")
	}
	m.Set(1, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf not detected")
	}
	m.Set(1, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN not detected")
	}
}

func TestZeroAndFillRespectViews(t *testing.T) {
	m := New(4, 4)
	m.Fill(5)
	v := m.View(1, 1, 2, 2)
	v.Zero()
	if m.At(0, 0) != 5 || m.At(3, 3) != 5 {
		t.Fatal("Zero on view leaked outside the view")
	}
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("Zero on view did not clear the view")
	}
}

func TestMulVecKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec got %v", y)
	}
}

func TestResidualZeroForExactSolution(t *testing.T) {
	a := Identity(3)
	x := []float64{1, 2, 3}
	r := Residual(a, x, []float64{1, 2, 3})
	if VecNormInf(r) != 0 {
		t.Fatalf("residual %v", r)
	}
}

func TestHPL3ExactSolutionIsZero(t *testing.T) {
	a := Identity(5)
	x := []float64{1, 2, 3, 4, 5}
	if got := HPL3(a, x, x); got != 0 {
		t.Fatalf("HPL3 = %g for exact solve", got)
	}
}

func TestHPL3ScalesWithResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 10, 10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := MulVec(a, x)
	// Perturb x: the backward error must become clearly nonzero.
	x[0] += 1e-8
	v := HPL3(a, x, b)
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("HPL3 = %g after perturbation", v)
	}
}

// TestHPL3NaNResidualIsFailure: a NaN residual entry, whether A, x or b
// put it there, scores +Inf rather than dropping out of the max-norm and
// scoring the solve as exact.
func TestHPL3NaNResidualIsFailure(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		a    []float64
		x, b []float64
	}{
		"nan-in-a": {[]float64{nan, 0, 0, 1}, []float64{1, 1}, []float64{5, 1}},
		"inf-in-a": {[]float64{inf, 0, 0, 1}, []float64{0, 1}, []float64{0, 1}},
		"nan-in-b": {[]float64{2, 0, 0, 1}, []float64{1, 1}, []float64{nan, 1}},
	} {
		if got := HPL3(FromSlice(2, 2, c.a), c.x, c.b); !math.IsInf(got, 1) {
			t.Errorf("%s: HPL3 = %g, want +Inf", name, got)
		}
	}
}

// TestResidualSplitsMatchWhole: ResidualRows over any split of the rows,
// and HPL3Residual over its result, give Residual's and HPL3's bits, NaN
// and Inf entries included; RowAbsStats folds to NormInf and NormMax.
func TestResidualSplitsMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 3, 4, 7, 13} {
		a := randomMatrix(rng, n, n)
		x, b := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if n > 3 {
			a.Set(1, 2, math.NaN())
			a.Set(3, 0, math.Inf(-1))
		}
		want := Residual(a, x, b)
		for split := 0; split <= n; split++ {
			r := make([]float64, n)
			ResidualRows(a, x, b, r, split, n)
			ResidualRows(a, x, b, r, 0, split)
			for i := range r {
				if math.Float64bits(r[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d split=%d row %d: %g vs %g", n, split, i, r[i], want[i])
				}
			}
			s0, m0 := RowAbsStats(a, 0, split)
			s1, m1 := RowAbsStats(a, split, n)
			if s := math.Max(s0, s1); s != a.NormInf() {
				t.Fatalf("n=%d split=%d: row sums %g vs NormInf %g", n, split, s, a.NormInf())
			}
			if m := math.Max(m0, m1); m != a.NormMax() {
				t.Fatalf("n=%d split=%d: max %g vs NormMax %g", n, split, m, a.NormMax())
			}
		}
		h, hr := HPL3(a, x, b), HPL3Residual(want, x, a.NormInf())
		if math.Float64bits(h) != math.Float64bits(hr) {
			t.Fatalf("n=%d: HPL3 %g vs HPL3Residual %g", n, h, hr)
		}
	}
}

func TestVecNorms(t *testing.T) {
	x := []float64{3, -4}
	if VecNorm1(x) != 7 || VecNormInf(x) != 4 || math.Abs(VecNorm2(x)-5) > 1e-15 {
		t.Fatalf("vector norms wrong: %g %g %g", VecNorm1(x), VecNormInf(x), VecNorm2(x))
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Identity(2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := New(20, 20)
	if s := big.String(); s != "Matrix 20x20" {
		t.Fatalf("large matrix String = %q", s)
	}
}
