package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
)

// The identity sweep checks that a change leaves every factorization as
// the parent computes it: run TestIdentitySweep on both trees (the parent
// at least twice) and diff the outputs with TestSweepDiff.
// scripts/sweep.sh does all of it in one command.

// sweepRun is one line of the sweep's output. Floats are kept as their
// bits, so NaN and ±Inf survive JSON and the diff compares exactly.
type sweepRun struct {
	Key       string   `json:"key"`
	Alg       string   `json:"alg"`
	Prec      string   `json:"prec"` // effective precision
	LUSteps   int      `json:"lu_steps"`
	Decisions string   `json:"decisions"` // L or Q per step
	Margins   []uint64 `json:"margins"`
	Kernels   []string `json:"kernels"` // the trace's distinct kernels
	// SHA-256s: Result is X, HPL3, Growth, PeakGrowth, RefineIters,
	// F32Steps and Demotions; Solve is SolveBatchRefined on two new
	// right-hand sides; Encoding is EncodeFactorization's payload with
	// WallTime zeroed, Factors the same with X and HPL3 cleared too; Trace
	// is each task's Name, Kernel, Node, Flops, Priority, Deps, Recv and
	// ExtraComm.
	Result, Solve, Encoding, Factors, Trace string
	F32Epochs                               int      `json:"f32_epochs"`
	Conversions                             int      `json:"conversions"`
	X                                       []uint64 `json:"x"`
	HPL3                                    uint64   `json:"hpl3"`
}

// TestIdentitySweep runs 576 factorizations and writes one JSON line per
// run to the file LUQR_SWEEP_OUT names; it is skipped when the variable is
// unset. The runs: LUQR variants A1, A2, B1 and B2 under Max α=100 and
// Random α=50, LUNoPiv, LUPP, HQR, LUIncPiv, CALU and HLU, on random,
// diagonally dominant and Wilkinson operators of N=192 nb=32 and padded
// N=500 nb=64, on 1×1 and 2×2 grids, at every precision the configuration
// runs (EffectivePrecision), with one and two workers, growth tracking and
// the trace on.
func TestIdentitySweep(t *testing.T) {
	out := os.Getenv("LUQR_SWEEP_OUT")
	if out == "" {
		t.Skip("LUQR_SWEEP_OUT names no output file")
	}
	file, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close() // on error paths; the success path checks Close
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)

	type alg struct {
		name string
		cfg  core.Config
	}
	var algs []alg
	for _, v := range []core.LUVariant{core.VarA1, core.VarA2, core.VarB1, core.VarB2} {
		algs = append(algs,
			alg{fmt.Sprintf("luqr-%v-max100", v), core.Config{Alg: core.LUQR, Variant: v, Criterion: criteria.Max{Alpha: 100}}},
			alg{fmt.Sprintf("luqr-%v-random50", v), core.Config{Alg: core.LUQR, Variant: v, Criterion: criteria.Random{Alpha: 50}, Seed: 7}})
	}
	for _, a := range []core.Algorithm{core.LUNoPiv, core.LUPP, core.HQR, core.LUIncPiv, core.CALU, core.HLU} {
		algs = append(algs, alg{a.String(), core.Config{Alg: a}})
	}
	ops := []struct {
		name string
		gen  func(n int) *mat.Matrix
	}{
		{"random", func(n int) *mat.Matrix { return matgen.Random(n, rand.New(rand.NewSource(int64(n)))) }},
		{"diagdom", func(n int) *mat.Matrix { return matgen.DiagDominant(n, rand.New(rand.NewSource(int64(n)))) }},
		{"wilkinson", matgen.Wilkinson},
	}
	runs := 0
	for _, a := range algs {
		precs := map[core.Precision]bool{}
		for _, p := range []core.Precision{core.PrecisionF64, core.PrecisionAuto, core.PrecisionF32} {
			cfg := a.cfg
			cfg.Precision = p
			precs[cfg.EffectivePrecision()] = true
		}
		for _, op := range ops {
			for _, size := range [][2]int{{192, 32}, {500, 64}} {
				n := size[0]
				m := op.gen(n)
				b := matgen.RandomVector(n, rand.New(rand.NewSource(int64(n)+1)))
				rhs := [][]float64{
					matgen.RandomVector(n, rand.New(rand.NewSource(int64(n)+2))),
					matgen.RandomVector(n, rand.New(rand.NewSource(int64(n)+3))),
				}
				for _, grid := range []int{1, 2} {
					for _, p := range []core.Precision{core.PrecisionF64, core.PrecisionAuto, core.PrecisionF32} {
						if !precs[p] {
							continue
						}
						for _, workers := range []int{1, 2} {
							cfg := a.cfg
							cfg.NB, cfg.Grid, cfg.Precision, cfg.Workers = size[1], tile.NewGrid(grid, grid), p, workers
							cfg.TrackGrowth, cfg.Trace = true, true
							key := fmt.Sprintf("%s/%s/n=%d/grid=%d/%v/w=%d", a.name, op.name, n, grid, p, workers)
							r, err := sweepOne(key, a.cfg.Alg.String(), m, b, rhs, cfg)
							if err != nil {
								t.Fatalf("%s: %v", key, err)
							}
							if err := enc.Encode(r); err != nil {
								t.Fatal(err)
							}
							runs++
						}
					}
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs written to %s", runs, out)
}

func sweepOne(key, alg string, a *mat.Matrix, b []float64, rhs [][]float64, cfg core.Config) (*sweepRun, error) {
	res, err := core.Run(a, b, cfg)
	if err != nil {
		return nil, err
	}
	rep := res.Report
	r := &sweepRun{Key: key, Alg: alg, Prec: cfg.EffectivePrecision().String(), LUSteps: rep.LUSteps,
		F32Epochs: rep.F32Epochs, Conversions: rep.Conversions, HPL3: math.Float64bits(rep.HPL3)}
	for _, d := range rep.Decisions {
		r.Decisions += map[bool]string{true: "L", false: "Q"}[d]
	}
	for _, m := range rep.Margins {
		r.Margins = append(r.Margins, math.Float64bits(m))
	}
	for _, x := range res.X {
		r.X = append(r.X, math.Float64bits(x))
	}
	h := sha256.New()
	hashFloats(h, res.X...)
	hashFloats(h, rep.HPL3, rep.Growth, rep.PeakGrowth)
	fmt.Fprintf(h, "%d %d %d", rep.RefineIters, rep.F32Steps, rep.Demotions)
	r.Result = fmt.Sprintf("%x", h.Sum(nil))

	xs, iters, err := res.SolveBatchRefined(rhs)
	if err != nil {
		return nil, err
	}
	h = sha256.New()
	for _, x := range xs {
		hashFloats(h, x...)
	}
	fmt.Fprintf(h, "%d", iters)
	r.Solve = fmt.Sprintf("%x", h.Sum(nil))

	wall := rep.WallTime
	rep.WallTime = 0
	data, err := res.EncodeFactorization()
	if err != nil {
		return nil, err
	}
	r.Encoding = payloadHash(data)
	x, hpl3 := res.X, rep.HPL3
	res.X, rep.HPL3 = nil, 0
	if data, err = res.EncodeFactorization(); err != nil {
		return nil, err
	}
	r.Factors = payloadHash(data)
	res.X, rep.HPL3, rep.WallTime = x, hpl3, wall

	h = sha256.New()
	kernels := map[string]bool{}
	for _, task := range rep.Trace {
		fmt.Fprintf(h, "%s|%s|%d|%x|%d|%v|%v|%v\n", task.Name, task.Kernel, task.Node,
			math.Float64bits(task.Flops), task.Priority, task.Deps, task.Recv, task.ExtraComm)
		kernels[task.Kernel] = true
	}
	r.Trace = fmt.Sprintf("%x", h.Sum(nil))
	for k := range kernels {
		r.Kernels = append(r.Kernels, k)
	}
	sort.Strings(r.Kernels)
	return r, nil
}

// factHeaderLen is the length of the factorization stream's fixed header:
// magic, version, payload length and payload checksum (serialize.go).
const factHeaderLen = 8 + 4 + 8 + sha256.Size

// payloadHash hashes an encoded factorization past its header, so a change
// that bumps the stream version still compares every run with its parent.
// The header's length and checksum are functions of the payload.
func payloadHash(stream []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(stream[factHeaderLen:]))
}

// TestSweepHashesPayload pins what the Encoding and Factors hashes cover:
// rewriting a stream's version keeps the hash, flipping a payload byte
// moves it.
func TestSweepHashesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matgen.Random(64, rng)
	res, err := core.Run(a, matgen.RandomVector(64, rng), core.Config{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.EncodeFactorization()
	if err != nil {
		t.Fatal(err)
	}
	if plen := binary.LittleEndian.Uint64(data[12:20]); plen != uint64(len(data)-factHeaderLen) {
		t.Fatalf("stream of %d bytes promises a %d-byte payload: the header is not %d bytes", len(data), plen, factHeaderLen)
	}
	want := payloadHash(data)
	bumped := slices.Clone(data)
	binary.LittleEndian.PutUint32(bumped[8:12], binary.LittleEndian.Uint32(data[8:12])+1)
	if got := payloadHash(bumped); got != want {
		t.Errorf("rewriting the version moved the hash: %s, want %s", got, want)
	}
	flipped := slices.Clone(data)
	flipped[len(flipped)-1] ^= 1
	if payloadHash(flipped) == want {
		t.Error("flipping a payload byte kept the hash")
	}
}

func hashFloats(h interface{ Write([]byte) (int, error) }, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// TestSweepDiff compares sweep outputs: LUQR_SWEEP_DIFF lists the parent
// runs' files and then the change's, comma-separated; it is skipped when
// the variable is unset. LUQR_SWEEP_CHANGED names what the change may move:
// unset for the identity check; "lu" for runs with an LU step (an LU
// kernel's rounding); a comma-separated list of trace kernels, such as
// GEQRT,TSQRT,TTQRT,TRSMQR for the QR panel kernels, whose runs may move by
// rounding; or "layout:" and a comma-separated list of run names, such as
// layout:luincpiv,hlu,luqr-a2, whose runs may change their trace and
// payload layout but not their results. A name matches the runs whose key
// begins with it and then "/" or "-", so luqr-a2 covers luqr-a2-max100
// and luqr-a2-random50.
//
// It fails where the parents disagree with each other on any hash, where a
// run is missing on either side, and where a run moves what it may not:
// outside the changed set, under "lu", its factors (X and HPL3 cleared) or
// its trace, since back substitution's TRSM moves X in every run, and
// otherwise any hash; inside a layout set, its Result or Solve hash. It
// reports, without failing: how many runs are bit-identical outside the
// changed set and inside it; for the runs that may move by rounding, how
// many did per effective precision and the largest relative change of X
// (max|Δx|/max|x|) and of HPL3; every layout run whose Encoding, Factors or
// Trace moved; every LU/QR decision flip with the step's margin on both
// sides; every run whose HPL3 crosses the acceptance band (≤ 16) either
// way; and every F32Epochs or Conversions count outside the parents'
// range, whose spread is timing.
func TestSweepDiff(t *testing.T) {
	spec := os.Getenv("LUQR_SWEEP_DIFF")
	if spec == "" {
		t.Skip("LUQR_SWEEP_DIFF names no sweep files")
	}
	files := strings.Split(spec, ",")
	if len(files) < 2 {
		t.Fatalf("LUQR_SWEEP_DIFF lists %d files, want the parents' and then the change's", len(files))
	}
	var parents []map[string]*sweepRun
	for _, f := range files[:len(files)-1] {
		parents = append(parents, readSweep(t, f))
	}
	change := readSweep(t, files[len(files)-1])
	changed := os.Getenv("LUQR_SWEEP_CHANGED")
	layoutNames, layout := strings.CutPrefix(changed, "layout:")
	mayMove := func(p, c *sweepRun) bool {
		switch {
		case changed == "":
			return false
		case layout:
			for _, name := range strings.Split(layoutNames, ",") {
				if strings.HasPrefix(p.Key, name+"/") || strings.HasPrefix(p.Key, name+"-") {
					return true
				}
			}
			return false
		case changed == "lu":
			return p.LUSteps > 0 || c.LUSteps > 0
		}
		for _, k := range strings.Split(changed, ",") {
			if slices.Contains(p.Kernels, k) || slices.Contains(c.Kernels, k) {
				return true
			}
		}
		return false
	}

	ref := parents[0]
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, p := range parents[1:] {
		for _, k := range keys {
			q := p[k]
			if q == nil || sweepHashes(q) != sweepHashes(ref[k]) {
				t.Errorf("parent runs 1 and %d differ at %s: the parent is not reproducible", i+2, k)
			}
		}
	}
	if len(change) != len(ref) {
		t.Errorf("%d runs in the change's file, %d in the parent's", len(change), len(ref))
	}

	type moved struct {
		n, of      int
		dx, dhpl3  float64
		worstKey   string
		factorsOff int
	}
	byPrec := map[string]*moved{}
	var outside, identicalOutside, inside, identicalInside int
	var flips, band, epochs, layoutMoves []string
	for _, k := range keys {
		p, c := ref[k], change[k]
		if c == nil {
			t.Errorf("%s: missing from the change's file", k)
			continue
		}
		if !mayMove(p, c) {
			outside++
			switch {
			case changed == "lu" && (p.Factors != c.Factors || p.Trace != c.Trace):
				t.Errorf("%s: takes no LU step, yet its factors (match %v) or trace (match %v) moved", k, p.Factors == c.Factors, p.Trace == c.Trace)
			case changed != "lu" && sweepHashes(p) != sweepHashes(c):
				t.Errorf("%s: not bit-identical (result %v, solve %v, encoding %v, factors %v, trace %v match)", k,
					p.Result == c.Result, p.Solve == c.Solve, p.Encoding == c.Encoding, p.Factors == c.Factors, p.Trace == c.Trace)
			case sweepHashes(p) == sweepHashes(c):
				identicalOutside++
			}
		} else if layout {
			inside++
			if p.Result != c.Result || p.Solve != c.Solve {
				t.Errorf("%s: only its layout may move, yet its result (match %v) or solve (match %v) moved", k, p.Result == c.Result, p.Solve == c.Solve)
			}
			var moved []string
			if p.Encoding != c.Encoding {
				moved = append(moved, "encoding")
			}
			if p.Factors != c.Factors {
				moved = append(moved, "factors")
			}
			if p.Trace != c.Trace {
				moved = append(moved, "trace")
			}
			if len(moved) == 0 {
				identicalInside++
			} else {
				layoutMoves = append(layoutMoves, fmt.Sprintf("%s: %s", k, strings.Join(moved, ", ")))
			}
		} else {
			inside++
			m := byPrec[c.Prec]
			if m == nil {
				m = &moved{}
				byPrec[c.Prec] = m
			}
			m.of++
			if sweepHashes(p) != sweepHashes(c) {
				m.n++
				if p.Factors != c.Factors {
					m.factorsOff++
				}
				if d := relChange(p.X, c.X); d > m.dx {
					m.dx, m.worstKey = d, k
				}
				if d := relChange([]uint64{p.HPL3}, []uint64{c.HPL3}); d > m.dhpl3 {
					m.dhpl3 = d
				}
			} else {
				identicalInside++
			}
		}
		if p.Decisions != c.Decisions {
			for s := range p.Decisions {
				if s < len(c.Decisions) && p.Decisions[s] != c.Decisions[s] {
					flips = append(flips, fmt.Sprintf("%s step %d: %c → %c, margin %.6g → %.6g", k, s,
						p.Decisions[s], c.Decisions[s], math.Float64frombits(p.Margins[s]), math.Float64frombits(c.Margins[s])))
				}
			}
		}
		if hp, hc := math.Float64frombits(p.HPL3), math.Float64frombits(c.HPL3); (hp <= 16) != (hc <= 16) {
			band = append(band, fmt.Sprintf("%s: HPL3 %.4g → %.4g", k, hp, hc))
		}
		lo, hi := [2]int{p.F32Epochs, p.Conversions}, [2]int{p.F32Epochs, p.Conversions}
		for _, q := range parents[1:] {
			if r := q[k]; r != nil {
				lo = [2]int{min(lo[0], r.F32Epochs), min(lo[1], r.Conversions)}
				hi = [2]int{max(hi[0], r.F32Epochs), max(hi[1], r.Conversions)}
			}
		}
		if c.F32Epochs < lo[0] || c.F32Epochs > hi[0] || c.Conversions < lo[1] || c.Conversions > hi[1] {
			epochs = append(epochs, fmt.Sprintf("%s: epochs %d (parents %d–%d), conversions %d (parents %d–%d)",
				k, c.F32Epochs, lo[0], hi[0], c.Conversions, lo[1], hi[1]))
		}
	}

	what := "everything"
	if changed != "" {
		what = changed
	}
	t.Logf("%d runs, %d parent files; may move: %s", len(keys), len(parents), what)
	t.Logf("outside the changed set: %d runs, %d bit-identical; inside it: %d runs, %d bit-identical",
		outside, identicalOutside, inside, identicalInside)
	precs := make([]string, 0, len(byPrec))
	for p := range byPrec {
		precs = append(precs, p)
	}
	sort.Strings(precs)
	for _, p := range precs {
		m := byPrec[p]
		t.Logf("%s: %d of %d runs moved (%d with moved factors); max|Δx|/max|x| %.3g (%s), HPL3 relative change %.3g",
			p, m.n, m.of, m.factorsOff, m.dx, m.worstKey, m.dhpl3)
	}
	report := func(title string, lines []string) {
		t.Logf("%s: %d", title, len(lines))
		for _, l := range lines {
			t.Logf("  %s", l)
		}
	}
	if layout {
		report("layout runs whose encoding, factors or trace moved", layoutMoves)
	}
	report("decision flips", flips)
	report("HPL3 band (≤ 16) crossings", band)
	report("F32Epochs/Conversions outside the parents' range", epochs)
}

func readSweep(t *testing.T, path string) map[string]*sweepRun {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs := map[string]*sweepRun{}
	dec := json.NewDecoder(f)
	for dec.More() {
		r := &sweepRun{}
		if err := dec.Decode(r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		runs[r.Key] = r
	}
	return runs
}

// sweepHashes joins the hashes a bit-identical run must match.
func sweepHashes(r *sweepRun) string {
	return strings.Join([]string{r.Result, r.Solve, r.Encoding, r.Factors, r.Trace}, " ")
}

// relChange returns max|Δ|/max|x| between two vectors of float64 bits:
// +Inf when they differ in length or where exactly one side is not finite.
func relChange(a, b []uint64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d, s float64
	for i := range a {
		x, y := math.Float64frombits(a[i]), math.Float64frombits(b[i])
		if a[i] == b[i] {
			s = math.Max(s, math.Abs(x))
			continue
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return math.Inf(1)
		}
		d, s = math.Max(d, math.Abs(x-y)), math.Max(s, math.Abs(x))
	}
	if d == 0 {
		return 0
	}
	return d / s
}
