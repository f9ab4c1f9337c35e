package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
)

// roundTrip encodes res, decodes the stream, and fails the test on any
// divergence in the carried solution or report scalars.
func roundTrip(t *testing.T, res *Result) *Result {
	t.Helper()
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeFactorization(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.X) != len(res.X) {
		t.Fatalf("decoded X has length %d, want %d", len(got.X), len(res.X))
	}
	for i := range res.X {
		if got.X[i] != res.X[i] {
			t.Fatalf("decoded X[%d] = %g, want %g", i, got.X[i], res.X[i])
		}
	}
	r1, r2 := res.Report, got.Report
	if r2.N != r1.N || r2.NB != r1.NB || r2.NT != r1.NT || r2.LUSteps != r1.LUSteps ||
		r2.QRSteps != r1.QRSteps || r2.Breakdown != r1.Breakdown ||
		r2.HPL3 != r1.HPL3 || r2.Growth != r1.Growth {
		t.Fatalf("decoded report %+v diverges from %+v", r2, r1)
	}
	if len(r2.Decisions) != len(r1.Decisions) {
		t.Fatalf("decoded %d decisions, want %d", len(r2.Decisions), len(r1.Decisions))
	}
	for k := range r1.Decisions {
		if r2.Decisions[k] != r1.Decisions[k] {
			t.Fatalf("decoded decision[%d] = %v, want %v", k, r2.Decisions[k], r1.Decisions[k])
		}
	}
	return got
}

// assertReplaysIdentically drives both Results through Solve and SolveBatch
// on fresh right-hand sides and demands bit-identical solutions — the
// contract a warm-loaded service cache entry must honor.
func assertReplaysIdentically(t *testing.T, want, got *Result, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b1 := matgen.RandomVector(n, rng)
	x1, err := want.Solve(b1)
	if err != nil {
		t.Fatalf("original Solve: %v", err)
	}
	x2, err := got.Solve(b1)
	if err != nil {
		t.Fatalf("decoded Solve: %v", err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("Solve diverges at x[%d]: %g vs %g", i, x1[i], x2[i])
		}
	}
	bs := [][]float64{matgen.RandomVector(n, rng), matgen.RandomVector(n, rng), matgen.RandomVector(n, rng)}
	xs1, err := want.SolveBatch(bs)
	if err != nil {
		t.Fatalf("original SolveBatch: %v", err)
	}
	xs2, err := got.SolveBatch(bs)
	if err != nil {
		t.Fatalf("decoded SolveBatch: %v", err)
	}
	for j := range xs1 {
		for i := range xs1[j] {
			if xs1[j][i] != xs2[j][i] {
				t.Fatalf("SolveBatch diverges at x[%d][%d]: %g vs %g", j, i, xs1[j][i], xs2[j][i])
			}
		}
	}
}

// TestSerializeRoundTripAllAlgorithms: every algorithm's replay state must
// survive encode/decode bit-identically. The LUQR entries force mixed LU/QR
// decision sequences (including pure-QR via alpha 0), and the grid entries
// exercise multi-domain panels.
func TestSerializeRoundTripAllAlgorithms(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lunopiv", Config{Alg: LUNoPiv, NB: 16}},
		{"lupp", Config{Alg: LUPP, NB: 16, Grid: tile.NewGrid(2, 2)}},
		{"luincpiv", Config{Alg: LUIncPiv, NB: 16}},
		{"hqr", Config{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 1)}},
		{"calu", Config{Alg: CALU, NB: 16, Grid: tile.NewGrid(2, 1)}},
		{"hlu", Config{Alg: HLU, NB: 16, Grid: tile.NewGrid(2, 1)}},
		{"luqr-a1", Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 1.5}}},
		{"luqr-a1-pure-qr", Config{Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 0}}},
		{"luqr-a2", Config{Alg: LUQR, NB: 16, Variant: VarA2, Criterion: criteria.Max{Alpha: 2}}},
		{"luqr-b1", Config{Alg: LUQR, NB: 16, Variant: VarB1, Criterion: criteria.Max{Alpha: 2}}},
		{"luqr-b2", Config{Alg: LUQR, NB: 16, Variant: VarB2, Criterion: criteria.Max{Alpha: 2}}},
		{"luqr-random", Config{Alg: LUQR, NB: 16, Criterion: criteria.Random{Alpha: 50}, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 64
			rng := rand.New(rand.NewSource(77))
			a := matgen.Random(n, rng)
			b := matgen.RandomVector(n, rng)
			res := runOn(t, a, b, tc.cfg)
			got := roundTrip(t, res)
			assertReplaysIdentically(t, res, got, n, 400)
		})
	}
}

// TestSerializeRoundTripPadded: a system whose order is not a tile multiple
// is padded internally (§II-D.2); the decoded Result must keep solving at
// the original order.
func TestSerializeRoundTripPadded(t *testing.T) {
	n := 50 // NB defaults to 40 → padded to 80
	rng := rand.New(rand.NewSource(78))
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res, err := Run(a, b, Config{Alg: LUQR, Criterion: criteria.Max{Alpha: 100}})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, res)
	if got.Report.N != n {
		t.Fatalf("decoded Report.N = %d, want %d", got.Report.N, n)
	}
	assertReplaysIdentically(t, res, got, n, 401)
}

// streamDamage is every class of on-disk damage: truncation, bad magic,
// version skew, and payload or checksum corruption.
var streamDamage = []struct {
	name    string
	mutate  func([]byte) []byte
	wantSub string
}{
	{"empty", func(d []byte) []byte { return nil }, "truncated"},
	{"header-only", func(d []byte) []byte { return d[:20] }, "truncated"},
	{"truncated-payload", func(d []byte) []byte { return d[:len(d)-7] }, "truncated"},
	{"bad-magic", func(d []byte) []byte {
		d[0] = 'X'
		return d
	}, "bad magic"},
	{"version-skew", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[8:12], factEncodingVersion+1)
		return d
	}, "version skew"},
	{"flipped-payload-byte", func(d []byte) []byte {
		d[len(d)-1] ^= 0x40
		return d
	}, "checksum"},
	{"flipped-checksum-byte", func(d []byte) []byte {
		d[24] ^= 0x01
		return d
	}, "checksum"},
}

// TestSerializeRejectsDamage: every class of on-disk damage — truncation,
// bad magic, version skew, and payload corruption — must fail decoding with
// a descriptive error, never a wrong Result.
func TestSerializeRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	n := 32
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16})
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range streamDamage {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.mutate(append([]byte(nil), data...))
			if _, err := DecodeFactorization(d); err == nil {
				t.Fatal("decode accepted damaged stream")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The undamaged copy still decodes after all that slicing around.
	if _, err := DecodeFactorization(data); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}

// TestSerializeDeterministic: encoding the same Result twice yields the same
// bytes — map iteration order and other nondeterminism must not leak into
// the stream (the service stores and checksums these files).
func TestSerializeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	// HQR has the richest reflector maps (tGeqrt + tKill per step).
	res := runOn(t, a, b, Config{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 1)})
	d1, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("two encodings of one Result differ")
	}
}

// TestSerializeCriterionSurvives: the decoded config carries the criterion
// (type and threshold), which the service reports in job views.
func TestSerializeCriterionSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 32
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Criterion: criteria.Sum{Alpha: 7.5}})
	got := roundTrip(t, res)
	c, ok := got.f.cfg.Criterion.(criteria.Sum)
	if !ok {
		t.Fatalf("decoded criterion has type %T, want criteria.Sum", got.f.cfg.Criterion)
	}
	if c.Alpha != 7.5 {
		t.Fatalf("decoded alpha = %g, want 7.5", c.Alpha)
	}
}

// TestSerializeResultWithoutState: a Result that carries no factorization
// state (never produced by Run, but constructible) must refuse to encode.
func TestSerializeResultWithoutState(t *testing.T) {
	if _, err := (&Result{X: []float64{1}}).EncodeFactorization(); err == nil {
		t.Fatal("encode of a state-less Result succeeded")
	}
}

// TestSerializeRefineWorks: the decoded factorization also backs iterative
// refinement (it goes through Solve).
func TestSerializeRefineWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	n := 32
	a := matgen.Random(n, rng)
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	res := runOn(t, a, b, Config{Alg: LUPP, NB: 16})
	got := roundTrip(t, res)
	refined, err := got.Refine(a, b, got.X, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) != n {
		t.Fatalf("refined solution has length %d, want %d", len(refined), n)
	}
}

// rebuildStream reassembles a wire stream around a raw gob payload with the
// given header version — the test-side counterpart of EncodeFactorization's
// framing, for crafting legacy and hand-damaged payloads.
func rebuildStream(version uint32, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := bytes.NewBuffer(make([]byte, 0, factHeaderLen+len(payload)))
	out.Write(factMagic[:])
	binary.Write(out, binary.LittleEndian, version)
	binary.Write(out, binary.LittleEndian, uint64(len(payload)))
	out.Write(sum[:])
	out.Write(payload)
	return out.Bytes()
}

// TestSerializeMixedPrecisionRoundTrip: an f32 factorization's precision
// state — mode, per-step flags, margins, demotions, and the retained
// original matrix that feeds refinement — must survive encode/decode, and
// the reloaded Result must still refine fresh right-hand sides into the
// acceptance band (the service restart scenario). The padded order (60 pads
// to 64) checks that the decoded Result refines against the same ‖A‖∞ of
// the original rows as the live one.
func TestSerializeMixedPrecisionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{64, 60} {
		testMixedPrecisionRoundTrip(t, rng, n)
	}
}

func testMixedPrecisionRoundTrip(t *testing.T, rng *rand.Rand, n int) {
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32, Criterion: criteria.Max{Alpha: 100}})
	if res.Report.F32Steps == 0 {
		t.Fatal("run accepted no f32 steps; nothing to round-trip")
	}
	got := roundTrip(t, res)
	r1, r2 := res.Report, got.Report
	if r2.Precision != r1.Precision || r2.F32Steps != r1.F32Steps ||
		r2.Demotions != r1.Demotions || r2.RefineIters != r1.RefineIters {
		t.Fatalf("precision scalars diverge: %v/%d/%d/%d vs %v/%d/%d/%d",
			r2.Precision, r2.F32Steps, r2.Demotions, r2.RefineIters,
			r1.Precision, r1.F32Steps, r1.Demotions, r1.RefineIters)
	}
	for k := range r1.StepF32 {
		if r2.StepF32[k] != r1.StepF32[k] {
			t.Fatalf("StepF32[%d] diverges", k)
		}
		m1, m2 := r1.Margins[k], r2.Margins[k]
		if m1 != m2 && !(math.IsNaN(m1) && math.IsNaN(m2)) {
			t.Fatalf("Margins[%d] = %g, want %g", k, m2, m1)
		}
	}
	if got.f.a0 == nil {
		t.Fatal("decoded f32 factorization lost the original matrix")
	}
	assertReplaysIdentically(t, res, got, n, 402)
	bs := [][]float64{matgen.RandomVector(n, rng)}
	xs, iters, err := got.SolveBatchRefined(bs)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("reloaded f32 factorization did not refine")
	}
	if h := mat.HPL3(a, xs[0], bs[0]); math.IsNaN(h) || h > refineHPL3Tol {
		t.Fatalf("reloaded refined HPL3 = %g > %g", h, refineHPL3Tol)
	}
}

// facPayloadV1 is the exact field set of the v1 payload, used to fabricate
// genuine legacy streams (gob matches struct fields by name, so encoding
// this subset reproduces what a v1 build wrote).
type facPayloadV1 struct {
	Alg       int
	NB        int
	GridP     int
	GridQ     int
	Scope     int
	Variant   int
	IntraTree int
	InterTree int
	Seed      int64
	Criterion criteria.Criterion

	MT, NT int
	Tiles  []float64

	Decisions []bool
	Steps     []facStep

	N          int
	LUSteps    int
	QRSteps    int
	Breakdown  bool
	WallNS     int64
	HPL3       float64
	Growth     float64
	PeakGrowth float64

	X []float64
}

// TestSerializeV1Migration: a v1 stream (no precision fields) must decode as
// a pure-f64 factorization — precision f64, no f32 steps, NaN margins — and
// replay bit-identically to the live Result it mirrors.
func TestSerializeV1Migration(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Grid: tile.NewGrid(2, 1), Criterion: criteria.Max{Alpha: 1.5}})
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	var p facPayload
	if err := gob.NewDecoder(bytes.NewReader(data[factHeaderLen:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	v1 := facPayloadV1{
		Alg: p.Alg, NB: p.NB, GridP: p.GridP, GridQ: p.GridQ,
		Scope: p.Scope, Variant: p.Variant, IntraTree: p.IntraTree, InterTree: p.InterTree,
		Seed: p.Seed, Criterion: p.Criterion,
		MT: p.MT, NT: p.NT, Tiles: p.Tiles,
		Decisions: p.Decisions, Steps: p.Steps,
		N: p.N, LUSteps: p.LUSteps, QRSteps: p.QRSteps, Breakdown: p.Breakdown,
		WallNS: p.WallNS, HPL3: p.HPL3, Growth: p.Growth, PeakGrowth: p.PeakGrowth,
		X: p.X,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFactorization(rebuildStream(1, payload.Bytes()))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	r := got.Report
	if r.Precision != PrecisionF64 || r.F32Steps != 0 || r.Demotions != 0 || r.RefineIters != 0 {
		t.Fatalf("v1 migration not pure-f64: prec=%v f32=%d dem=%d ref=%d", r.Precision, r.F32Steps, r.Demotions, r.RefineIters)
	}
	if len(r.StepF32) != r.NT || len(r.Margins) != r.NT {
		t.Fatalf("v1 migration slices: %d f32 flags, %d margins for nt=%d", len(r.StepF32), len(r.Margins), r.NT)
	}
	for k := range r.StepF32 {
		if r.StepF32[k] || !math.IsNaN(r.Margins[k]) {
			t.Fatalf("v1 step %d migrated with f32=%v margin=%g", k, r.StepF32[k], r.Margins[k])
		}
	}
	if !math.IsNaN(r.MarginMin) || !math.IsNaN(r.MarginMax) {
		t.Fatalf("v1 margin summary = [%g, %g], want NaNs", r.MarginMin, r.MarginMax)
	}
	assertReplaysIdentically(t, res, got, n, 403)
}

// TestSerializeV2FormsY: a v2 stream stored its GEQRT T factors with a
// zero strictly lower triangle, where v3 keeps Y = V₁·Tᵀ. Decoding one,
// made here from a v3 run's payload with those triangles zeroed, must form
// Y again and solve bit for bit as the v3 stream and the live Result do,
// for the GEQRT updates of HQR and the (A2)/(B2) diagonal solvers.
//
// A run with float32 steps is the exception: its accepted float32 GEQRTs
// formed Y in float32, while decoding forms it in float64 from the
// widened factors, so there the replays agree to float32's rounding and
// the refined solve still reaches the acceptance band.
func TestSerializeV2FormsY(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	for _, cfg := range []Config{
		{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 1)},
		{Alg: LUQR, Variant: VarA2, NB: 16, Criterion: criteria.Max{Alpha: 1.5}},
		{Alg: LUQR, Variant: VarB2, NB: 16, Criterion: criteria.Max{Alpha: 1.5}},
		{Alg: HQR, NB: 16, Grid: tile.NewGrid(2, 1), Precision: PrecisionF32},
	} {
		res := runOn(t, a, b, cfg)
		data, err := res.EncodeFactorization()
		if err != nil {
			t.Fatal(err)
		}
		v3, err := DecodeFactorization(data)
		if err != nil {
			t.Fatal(err)
		}
		var p facPayload
		if err := gob.NewDecoder(bytes.NewReader(data[factHeaderLen:])).Decode(&p); err != nil {
			t.Fatal(err)
		}
		zeroed := 0
		for _, st := range p.Steps {
			for _, kv := range st.TGeqrt {
				m := kv.M
				for i := 0; i < m.Rows; i++ {
					for j := 0; j < i; j++ {
						if m.Data[i*m.Cols+j] != 0 {
							m.Data[i*m.Cols+j] = 0
							zeroed++
						}
					}
				}
			}
		}
		if zeroed == 0 {
			t.Fatalf("%v %v: no GEQRT factor held Y", cfg.Alg, cfg.Variant)
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
			t.Fatal(err)
		}
		v2, err := DecodeFactorization(rebuildStream(2, payload.Bytes()))
		if err != nil {
			t.Fatalf("%v %v: v2 stream rejected: %v", cfg.Alg, cfg.Variant, err)
		}
		if cfg.Precision == PrecisionF32 && res.Report.F32Steps == 0 {
			t.Fatal("the float32 run took no float32 step")
		}
		if res.Report.F32Steps == 0 {
			assertReplaysIdentically(t, v3, v2, n, 404)
			assertReplaysIdentically(t, res, v2, n, 405)
			continue
		}
		rhs := matgen.RandomVector(n, rand.New(rand.NewSource(406)))
		x3, err3 := v3.Solve(rhs)
		x2, err2 := v2.Solve(rhs)
		if err3 != nil || err2 != nil {
			t.Fatalf("f32 run: Solve errors %v, %v", err3, err2)
		}
		for i := range x3 {
			if d := math.Abs(x2[i] - x3[i]); d > 1e-4*(1+math.Abs(x3[i])) {
				t.Fatalf("f32 run: x[%d] = %g from the v2 stream, %g from v3", i, x2[i], x3[i])
			}
		}
		xs, _, err := v2.SolveBatchRefined([][]float64{rhs})
		if err != nil {
			t.Fatal(err)
		}
		if h := mat.HPL3(a, xs[0], rhs); !(h <= 16) {
			t.Fatalf("f32 run: refined solve from the v2 stream has HPL3 %g", h)
		}
	}
}

// incPivParentStream rewrites an LU IncPiv stream into the shape builds
// wrote before LU IncPiv ran the flat-tree HLU step: every step carries
// its factors as a facInc (the diagonal GETRF's snapshot and pivots, then
// each killed row's stack) and its pivot rows as [k], not as a facHLU.
func incPivParentStream(t testing.TB, data []byte) []byte {
	var p facPayload
	if err := gob.NewDecoder(bytes.NewReader(data[factHeaderLen:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	for k := range p.Steps {
		fs := &p.Steps[k]
		if fs.HasInc || !fs.HasHLU || len(fs.HLU.Heads) != 1 || fs.HLU.Heads[0].I != k {
			t.Fatalf("step %d is not a flat-tree HLU step: %+v", k, fs)
		}
		fs.Rows = []int{k}
		fs.HasInc, fs.Inc = true, facInc{L0: fs.HLU.Heads[0].M, PivK: fs.HLU.Heads[0].Piv, Rows: fs.HLU.Pairs}
		fs.HasHLU, fs.HLU = false, facHLU{}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		t.Fatal(err)
	}
	return rebuildStream(factEncodingVersion, payload.Bytes())
}

// TestSerializeIncPivParentStream: an LU IncPiv stream in the facInc shape
// of earlier builds, made here from a fresh run's stream, decodes to the
// same tiles and replays bit-identically to that run.
func TestSerializeIncPivParentStream(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	n := 60 // padded to 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUIncPiv, NB: 16})
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFactorization(incPivParentStream(t, data))
	if err != nil {
		t.Fatalf("facInc stream rejected: %v", err)
	}
	for i := 0; i < res.Factored.MT; i++ {
		for j := 0; j < res.Factored.NT; j++ {
			w, g := res.Factored.Tile(i, j).Data, got.Factored.Tile(i, j).Data
			for e := range w {
				if math.Float64bits(w[e]) != math.Float64bits(g[e]) {
					t.Fatalf("tile (%d,%d)[%d] = %v, want %v", i, j, e, g[e], w[e])
				}
			}
		}
	}
	assertReplaysIdentically(t, res, got, n, 407)
}

// TestSerializeRejectsF32WithoutA0: a stream claiming f32 steps but missing
// the original matrix cannot honor refined solves and must be rejected.
func TestSerializeRejectsF32WithoutA0(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	n := 48
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUNoPiv, NB: 16, Precision: PrecisionF32})
	if res.Report.F32Steps == 0 {
		t.Fatal("run accepted no f32 steps")
	}
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	var p facPayload
	if err := gob.NewDecoder(bytes.NewReader(data[factHeaderLen:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	p.A0 = facMatrix{}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFactorization(rebuildStream(factEncodingVersion, payload.Bytes())); err == nil {
		t.Fatal("decode accepted an f32 stream without the original matrix")
	} else if !strings.Contains(err.Error(), "original matrix") {
		t.Fatalf("error %q does not mention the missing original matrix", err)
	}
}

// TestSerializeRejectsUnreplayable: a payload with a valid checksum that
// replay could not use must fail decoding instead of yielding a Result
// whose Solve panics: a T factor of the wrong shape, and a tile order whose
// square overflows the element count check. A grid taller than the matrix
// is valid, and replay must not size anything by it.
func TestSerializeRejectsUnreplayable(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	n := 64
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	data, err := runOn(t, a, b, Config{Alg: HQR, NB: 16}).EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	// mutated re-encodes data's payload after mutate, behind a valid header.
	mutated := func(t *testing.T, mutate func(p *facPayload)) []byte {
		var p facPayload
		if err := gob.NewDecoder(bytes.NewReader(data[factHeaderLen:])).Decode(&p); err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
			t.Fatal(err)
		}
		return rebuildStream(factEncodingVersion, payload.Bytes())
	}
	for _, tc := range []struct {
		name    string
		mutate  func(p *facPayload)
		wantSub string
	}{
		{"t-factor-1x1", func(p *facPayload) {
			p.Steps[0].TGeqrt[0].M = facMatrix{Rows: 1, Cols: 1, Data: []float64{1}}
		}, "reflector factor for row 0 is 1x1"},
		{"nb-square-overflow", func(p *facPayload) {
			p.NB, p.MT, p.NT, p.Tiles = 1<<32, 1, 1, nil
			p.Decisions, p.Steps, p.StepF32, p.Margins = p.Decisions[:1], p.Steps[:1], p.StepF32[:1], p.Margins[:1]
		}, "invalid shape"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeFactorization(mutated(t, tc.mutate)); err == nil {
				t.Fatal("decode accepted a payload replay cannot use")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	t.Run("grid-p-huge", func(t *testing.T) {
		res, err := DecodeFactorization(mutated(t, func(p *facPayload) { p.GridP = 1 << 44 }))
		if err != nil {
			t.Fatal(err)
		}
		// The replayed reduction tree need not match the stored factors
		// any more; Solve may report that, but it must return.
		res.Solve(b)
	})
}

// reseal rewrites a stream's header length and checksum to match the
// payload behind it, keeping its magic and version, so that a mutated
// stream reaches the payload decoder. Inputs shorter than the header are
// returned as they are.
func reseal(data []byte) []byte {
	if len(data) < factHeaderLen {
		return data
	}
	out := append([]byte(nil), data...)
	payload := out[factHeaderLen:]
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:], sum[:])
	return out
}

// FuzzDecodeFactorization: whatever the payload, decoding either fails or
// yields a Result whose Solve returns (an error is allowed, a panic is
// not). Inputs are re-sealed, so the checksum does not stop mutations
// before the gob decoder and the validation. Seeds are valid encodings of
// several algorithms, an LU IncPiv stream in the facInc shape of earlier
// builds, and every class of stream damage.
func FuzzDecodeFactorization(f *testing.F) {
	rng := rand.New(rand.NewSource(87))
	n := 12
	a := matgen.Random(n, rng)
	b := matgen.RandomVector(n, rng)
	var data []byte
	for _, cfg := range []Config{
		{Alg: LUNoPiv, NB: 4},
		{Alg: LUIncPiv, NB: 4},
		{Alg: HQR, NB: 4, Grid: tile.NewGrid(2, 1)},
		{Alg: HLU, NB: 4, Grid: tile.NewGrid(2, 1)},
		{Alg: LUQR, NB: 4, Variant: VarB2, Criterion: criteria.Max{Alpha: 2}},
		{Alg: LUQR, NB: 4, Precision: PrecisionF32, Criterion: criteria.Max{Alpha: 100}},
	} {
		res, err := Run(a, b, cfg)
		if err != nil {
			f.Fatal(err)
		}
		if data, err = res.EncodeFactorization(); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if cfg.Alg == LUIncPiv {
			f.Add(incPivParentStream(f, data))
		}
	}
	for _, d := range streamDamage {
		f.Add(d.mutate(append([]byte(nil), data...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeFactorization(reseal(data))
		if err != nil {
			return
		}
		rhs := make([]float64, res.Report.N)
		for i := range rhs {
			rhs[i] = 1
		}
		res.Solve(rhs)
	})
}
