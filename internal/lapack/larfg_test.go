package lapack

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// unscaledLarfg is Larfg as it was before columns outside T's safe range
// were scaled: the formula every other column must still get bit for bit.
func unscaledLarfg[T mat.Float](alpha T, x []T) (beta, tau T) {
	sigma := blas.Dot(x, x)
	if sigma == 0 {
		return alpha, 0
	}
	mu := T(math.Sqrt(float64(alpha*alpha + sigma)))
	if alpha <= 0 {
		beta = mu
	} else {
		beta = -mu
	}
	tau = (beta - alpha) / beta
	blas.Scal(1/(alpha-beta), x)
	return beta, tau
}

// TestLarfgKeepsUnscaledBits pins the fast path: columns inside T's safe
// range, columns with an exactly zero tail, and columns holding an Inf or
// a NaN get unscaledLarfg's beta, tau and v bit for bit.
func TestLarfgKeepsUnscaledBits(t *testing.T) {
	t.Run("float64", testLarfgKeepsUnscaledBits[float64])
	t.Run("float32", testLarfgKeepsUnscaledBits[float32])
}

func testLarfgKeepsUnscaledBits[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	inf, nan := T(math.Inf(1)), T(math.NaN())
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(41)
		// Scales from 1e-12 to 1e12 stay far inside either type's range.
		s := math.Pow(10, float64(rng.Intn(25)-12))
		alpha := T(s * rng.NormFloat64())
		x := make([]T, n)
		for i := range x {
			x[i] = T(s * rng.NormFloat64())
		}
		switch {
		case trial%10 == 1:
			clear(x)
		case trial%10 == 2 && n > 0:
			x[rng.Intn(n)] = inf
		case trial%10 == 3 && n > 0:
			x[rng.Intn(n)] = nan
		case trial%10 == 4:
			alpha = -inf
		}
		got, want := append([]T(nil), x...), append([]T(nil), x...)
		gb, gt := Larfg(alpha, got)
		wb, wt := unscaledLarfg(alpha, want)
		same := func(a, b T) bool {
			return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) || (a != a && b != b)
		}
		if !same(gb, wb) || !same(gt, wt) {
			t.Fatalf("trial %d: beta, tau = %g, %g; unscaled formula gives %g, %g", trial, gb, gt, wb, wt)
		}
		for i := range got {
			if !same(got[i], want[i]) {
				t.Fatalf("trial %d: v[%d] = %g, unscaled formula gives %g", trial, i, got[i], want[i])
			}
		}
	}
}

// larfgScales are column scales near each type's overflow and underflow
// thresholds: squares of entries at these scales leave the type's range,
// or land where underflow eats their digits. The QR kernels' reconstruction
// tests run at them too.
func larfgScales[T mat.Float]() []float64 {
	if unitRoundoff[T]() > 1e-10 {
		return []float64{1e-35, 1e-30, 1e-25, 1e-20, 1e20, 1e25, 1e30, 1e35}
	}
	return []float64{1e-300, 1e-250, 1e-200, 1e-150, 1e150, 1e200, 1e250, 1e300}
}

// TestLarfgScaledColumns: at both precisions, on columns scaled toward
// either end of the type's range, Larfg returns a finite reflector that
// annihilates x.
func TestLarfgScaledColumns(t *testing.T) {
	t.Run("float64", testLarfgScaledColumns[float64])
	t.Run("float32", testLarfgScaledColumns[float32])
}

func testLarfgScaledColumns[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, s := range larfgScales[T]() {
		for _, n := range []int{1, 7, 40, 192} {
			alpha := T(s * rng.NormFloat64())
			x := make([]T, n)
			for i := range x {
				x[i] = T(s * rng.NormFloat64())
			}
			if msg := checkReflector(alpha, x); msg != "" {
				t.Fatalf("scale %g n=%d: %s", s, n, msg)
			}
		}
	}
}

// checkReflector runs Larfg on [alpha; x] and returns why the result is
// wrong, or "" when it holds: beta and tau finite, tau zero or in [1, 2],
// and H·[alpha; x] = [beta; 0], formed in 256-bit arithmetic that neither
// overflows nor underflows, to within 8·(n+1)·u·|beta| plus one subnormal
// spacing (a beta that small is rounded to that grid).
func checkReflector[T mat.Float](alpha T, x []T) string {
	v := append([]T(nil), x...)
	beta, tau := Larfg(alpha, v)
	b, tf := float64(beta), float64(tau)
	if math.IsInf(b, 0) || math.IsNaN(b) || math.IsInf(tf, 0) || math.IsNaN(tf) {
		return "beta or tau not finite"
	}
	if tau != 0 && (tau < 1 || tau > 2) {
		return "tau outside [1, 2]"
	}
	for _, vi := range v {
		if math.IsInf(float64(vi), 0) || math.IsNaN(float64(vi)) {
			return "v not finite"
		}
	}
	bf := func(f T) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(float64(f)) }
	// s = [1; v]ᵀ·[alpha; x]; H·[alpha; x] = [alpha; x] − tau·s·[1; v].
	s := bf(alpha)
	for i, xi := range x {
		s.Add(s, new(big.Float).SetPrec(256).Mul(bf(v[i]), bf(xi)))
	}
	ts := s.Mul(s, bf(tau))
	worst := new(big.Float).SetPrec(256).Sub(bf(alpha), ts)
	worst.Sub(worst, bf(beta)).Abs(worst)
	for i, xi := range x {
		r := new(big.Float).SetPrec(256).Mul(ts, bf(v[i]))
		r.Sub(bf(xi), r).Abs(r)
		if r.Cmp(worst) > 0 {
			worst = r
		}
	}
	u, tiny := unitRoundoff[T](), 0x1p-1074
	if u > 1e-10 {
		tiny = 0x1p-149
	}
	tol := new(big.Float).SetPrec(256).SetFloat64(8 * float64(len(x)+1) * u * math.Abs(b))
	tol.Add(tol, new(big.Float).SetFloat64(tiny))
	if worst.Cmp(tol) > 0 {
		return "H·[alpha; x] differs from [beta; 0] by " + worst.Text('g', 3) + " > " + tol.Text('g', 3)
	}
	return ""
}

// FuzzLarfg builds alpha and up to 40 entries of x from fuzzed mantissas
// and exponents spanning the whole range of either type, subnormals
// included, and requires checkReflector's properties of every finite
// column whose norm is finite. The first byte's low bit picks the type;
// each entry then takes six bytes, a 32-bit mantissa and a 16-bit word
// whose top bit is the sign and whose rest picks the exponent. The seed
// corpus holds random columns scaled by 1e∓170 (float64) and 1e∓35
// (float32), whose squares leave the type's range.
func FuzzLarfg(f *testing.F) {
	rng := rand.New(rand.NewSource(84))
	for _, seed := range []struct {
		f32   bool
		scale float64
	}{{false, 1e-170}, {false, 1e170}, {true, 1e-35}, {true, 1e35}} {
		col := make([]float64, 40)
		for i := range col {
			col[i] = seed.scale * rng.NormFloat64()
		}
		f.Add(encodeLarfgInput(seed.f32, col))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0]&1 == 0 {
			fuzzLarfg[float64](t, data[1:])
		} else {
			fuzzLarfg[float32](t, data[1:])
		}
	})
}

// larfgExponents returns the exponent range of T's nonzero values,
// subnormals included: each is a mantissa in [1, 2) times 2^e.
func larfgExponents[T mat.Float]() (lo, hi int) {
	if unitRoundoff[T]() > 1e-10 {
		return -149, 127
	}
	return -1074, 1023
}

func fuzzLarfg[T mat.Float](t *testing.T, data []byte) {
	lo, hi := larfgExponents[T]()
	var col []T
	for len(data) >= 6 && len(col) < 41 {
		m := binary.LittleEndian.Uint32(data)
		w := binary.LittleEndian.Uint16(data[4:])
		data = data[6:]
		v := math.Ldexp(1+float64(m)/(1<<32), lo+int(w&0x7fff)%(hi-lo+1))
		if w&0x8000 != 0 {
			v = -v
		}
		if math.IsInf(float64(T(v)), 0) {
			return
		}
		col = append(col, T(v))
	}
	if len(col) == 0 {
		return
	}
	norm := new(big.Float).SetPrec(256)
	for _, v := range col {
		f := new(big.Float).SetPrec(256).SetFloat64(float64(v))
		norm.Add(norm, f.Mul(f, f))
	}
	maxT := math.MaxFloat64
	if lo == -149 {
		maxT = math.MaxFloat32
	}
	if limit := new(big.Float).SetFloat64(maxT / (1 + 64*unitRoundoff[T]())); norm.Sqrt(norm).Cmp(limit) > 0 {
		return
	}
	if msg := checkReflector(col[0], col[1:]); msg != "" {
		t.Fatalf("alpha %g, x %g: %s", col[0], col[1:], msg)
	}
	fuzzLarfgRank(t, col[0], col[1:])
}

// fuzzLarfgRank checks larfgRank on the fuzzed column against Larfg, with
// ‖x‖₂ formed in 256-bit arithmetic: at half of it the rank test must not
// change Larfg's beta and tau, nor v unless Larfg itself returned H = I
// (its xᵀx underflowed in the scaled units, where a zeroed v is the same
// reflector); at twice it, x must be zeroed and H = I.
func fuzzLarfgRank[T mat.Float](t *testing.T, alpha T, x []T) {
	norm := new(big.Float).SetPrec(256)
	for _, v := range x {
		f := new(big.Float).SetPrec(256).SetFloat64(float64(v))
		norm.Add(norm, f.Mul(f, f))
	}
	nx, _ := norm.Sqrt(norm).Float64()
	if nx == 0 || math.IsInf(2*nx, 0) {
		return
	}
	want := append([]T(nil), x...)
	wb, wt := Larfg(alpha, want)
	got := append([]T(nil), x...)
	gb, gt := larfgRank(alpha, got, nx/2)
	if gb != wb || gt != wt {
		t.Fatalf("alpha %g, x %g: below the threshold beta, tau = %g, %g; Larfg gives %g, %g", alpha, x, gb, gt, wb, wt)
	}
	for i := range got {
		if got[i] != want[i] && !(got[i] == 0 && wt == 0) {
			t.Fatalf("alpha %g, x %g: below the threshold v[%d] = %g; Larfg gives %g", alpha, x, i, got[i], want[i])
		}
	}
	got = append(got[:0], x...)
	if gb, gt = larfgRank(alpha, got, 2*nx); gb != alpha || gt != 0 {
		t.Fatalf("alpha %g, x %g: above the threshold beta, tau = %g, %g, want %g, 0", alpha, x, gb, gt, alpha)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("alpha %g, x %g: above the threshold v[%d] = %g, want 0", alpha, x, i, v)
		}
	}
}

// encodeLarfgInput is fuzzLarfg's decoding run backwards, for the seeds.
func encodeLarfgInput(f32 bool, col []float64) []byte {
	lo := -1074
	data := []byte{0}
	if f32 {
		lo, data[0] = -149, 1
	}
	for _, v := range col {
		frac, e := math.Frexp(math.Abs(v))
		var entry [6]byte
		binary.LittleEndian.PutUint32(entry[:], uint32((2*frac-1)*(1<<32)))
		w := uint16(e - 1 - lo)
		if v < 0 {
			w |= 0x8000
		}
		binary.LittleEndian.PutUint16(entry[4:], w)
		data = append(data, entry[:]...)
	}
	return data
}

// TestLarfgRankTest pins the QR leaves' rank test at both precisions, on
// unscaled columns and on columns at larfgScales: a threshold below ‖x‖₂
// leaves Larfg's beta, tau and v bit for bit; one at or above it zeroes x
// and returns beta = alpha, tau = 0; and an x holding an Inf or a NaN
// never passes it, whatever the threshold.
func TestLarfgRankTest(t *testing.T) {
	t.Run("float64", testLarfgRankTest[float64])
	t.Run("float32", testLarfgRankTest[float32])
}

func testLarfgRankTest[T mat.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	same := func(a, b T) bool {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) || (a != a && b != b)
	}
	for _, s := range append([]float64{1}, larfgScales[T]()...) {
		for _, n := range []int{1, 7, 40, 192} {
			alpha := T(s * rng.NormFloat64())
			x := make([]T, n)
			for i := range x {
				x[i] = T(s * rng.NormFloat64())
			}
			norm := 0.0
			for _, v := range x {
				norm = math.Hypot(norm, float64(v))
			}
			got, want := append([]T(nil), x...), append([]T(nil), x...)
			gb, gt := larfgRank(alpha, got, 0.5*norm)
			wb, wt := Larfg(alpha, want)
			if !same(gb, wb) || !same(gt, wt) {
				t.Fatalf("scale %g n=%d: below the threshold beta, tau = %g, %g; Larfg gives %g, %g", s, n, gb, gt, wb, wt)
			}
			for i := range got {
				if !same(got[i], want[i]) {
					t.Fatalf("scale %g n=%d: v[%d] = %g, Larfg gives %g", s, n, i, got[i], want[i])
				}
			}
			got = append(got[:0], x...)
			gb, gt = larfgRank(alpha, got, 2*norm)
			if gb != alpha || gt != 0 {
				t.Fatalf("scale %g n=%d: above the threshold beta, tau = %g, %g, want %g, 0", s, n, gb, gt, alpha)
			}
			for i, v := range got {
				if v != 0 {
					t.Fatalf("scale %g n=%d: above the threshold v[%d] = %g, want 0", s, n, i, v)
				}
			}
			for _, bad := range []T{T(math.Inf(1)), T(math.NaN())} {
				got = append(got[:0], x...)
				got[rng.Intn(n)] = bad
				if _, gt = larfgRank(alpha, got, math.MaxFloat64); gt == 0 {
					t.Fatalf("scale %g n=%d: x holding %g passed the rank test", s, n, bad)
				}
			}
		}
	}
}
