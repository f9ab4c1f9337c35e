package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"time"

	"luqr/internal/criteria"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/tile"
	"luqr/internal/tree"
)

// This file implements the versioned serialization of a finished
// factorization: everything Result.Solve / Result.SolveBatch need to replay
// the stored per-step transformations on new right-hand sides — the factored
// tile payloads, pivot vectors, per-step LU/QR decisions and reflector
// blocks, and the numerically relevant configuration — but none of the
// runtime machinery (engine, handles, workspace pools), which exists only
// while the factorization is in flight.
//
// The wire layout is a small fixed header followed by a gob payload:
//
//	magic   [8]byte  "LUQRFACT"
//	version uint32   factEncodingVersion, little endian
//	length  uint64   payload length in bytes
//	sha256  [32]byte checksum of the payload
//	payload []byte   gob(facPayload)
//
// The checksum makes torn or bit-rotted files detectable before the gob
// decoder sees them, and the version field turns any format change into an
// explicit "version skew" error instead of a silent misread. Callers that
// persist encoded factorizations (the service's factor store) treat every
// decode error the same way: discard and re-factor.

// factEncodingVersion is bumped whenever the payload layout — or the replay
// semantics it feeds — changes incompatibly. v2 added the mixed-precision
// state (precision mode, per-step f32 flags, criterion margins, and the
// retained original matrix that feeds refinement residuals). v3 stores
// Y = V₁·Tᵀ in the strictly lower triangle of every GEQRT T factor, which
// the replay's Unmqr reads; v1 and v2 left it zero. Older streams are still
// readable: gob matches payload fields by name, so the v2 fields decode to
// their zero values, which is exactly the pure-f64 meaning every v1
// factorization had, and decoding a v1 or v2 stream forms Y with
// lapack.FormY, as GEQRT does. Decoding any version newer than this build
// fails.
const factEncodingVersion = 3

var factMagic = [8]byte{'L', 'U', 'Q', 'R', 'F', 'A', 'C', 'T'}

// factHeaderLen is the fixed prefix before the gob payload.
const factHeaderLen = 8 + 4 + 8 + sha256.Size

func init() {
	// The criterion travels inside the payload as an interface value, so the
	// concrete types must be registered. All implementations are small value
	// structs with exported fields.
	gob.Register(criteria.Max{})
	gob.Register(criteria.Sum{})
	gob.Register(criteria.MUMPS{})
	gob.Register(criteria.Random{})
	gob.Register(criteria.Always{})
	gob.Register(criteria.Never{})
}

// facMatrix is a densely packed matrix. The zero value (Rows == Cols == 0)
// encodes an absent matrix, which keeps every payload field a gob-friendly
// value type (gob rejects nil pointers inside slices).
type facMatrix struct {
	Rows, Cols int
	Data       []float64
}

// facKeyed is one sparse (index → matrix) association, used for the QR
// reflector maps and the per-row factors of the pairwise LU steps.
type facKeyed struct {
	I   int
	M   facMatrix
	Piv []int // meaning depends on context; empty when unused
}

// facOp mirrors tree.Op.
type facOp struct {
	Kind, I, Piv int
}

// facInc is an LU IncPiv step as older streams carry it; decoding converts
// it to the HLU state (asHLU), and encoding writes every pairwise LU step
// as a facHLU, so older builds replay new streams too.
type facInc struct {
	L0   facMatrix
	PivK []int      // the diagonal GETRF's pivots
	Rows []facKeyed // per killed row: stacked L factors + pivots
}

// facHLU is the serialized hluState of one pairwise LU step.
type facHLU struct {
	Ops   []facOp
	Heads []facKeyed // local GETRF factors + pivots, by row
	Pairs []facKeyed // pair-merge stacks + pivots, by killed row
}

// facStep is the replay-relevant subset of one stepState.
type facStep struct {
	K       int
	Rows    []int
	Piv     []int
	Stack   facMatrix
	Variant int
	TGeqrt  []facKeyed
	TKill   []facKeyed
	HasInc  bool
	Inc     facInc
	HasHLU  bool
	HLU     facHLU
}

// facPayload is the complete serialized factorization.
type facPayload struct {
	// Numerically relevant config. Workers/Trace are deliberately absent:
	// the runtime produces bit-identical factors at any worker count.
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

	// Factored tiles, tile-major: tile (i, j) occupies the NB·NB elements
	// starting at (i*NT+j)*NB*NB, row-major within the tile.
	MT, NT int
	Tiles  []float64

	// Per-step replay state and the criterion's decisions.
	Decisions []bool
	Steps     []facStep

	// Report scalars (Trace and Sched do not survive serialization).
	N          int // original order, before any tile padding
	LUSteps    int
	QRSteps    int
	Breakdown  bool
	WallNS     int64
	HPL3       float64
	Growth     float64
	PeakGrowth float64

	// X is the solution of the original run, kept so a warm-loaded Result is
	// indistinguishable from the in-memory one.
	X []float64

	// Mixed-precision state (v2; absent in v1 streams, where gob leaves the
	// zero values — the pure-f64 meaning). A0 is the retained original
	// matrix, packed only when the run accepted f32 steps: without it a
	// reloaded Result could not form the float64 refinement residuals its
	// solves owe the caller.
	Precision   int
	StepF32     []bool
	Margins     []float64
	F32Steps    int
	Demotions   int
	RefineIters int
	MarginMin   float64
	MarginMax   float64
	A0          facMatrix
}

// packMatrix copies m (which may be a strided view) into a tight facMatrix.
func packMatrix(m *mat.Matrix) facMatrix {
	if m == nil {
		return facMatrix{}
	}
	out := facMatrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, m.Rows*m.Cols)}
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*m.Cols:(i+1)*m.Cols], m.Row(i)[:m.Cols])
	}
	return out
}

// unpackMatrix inverts packMatrix; the zero facMatrix yields nil.
func unpackMatrix(f facMatrix) (*mat.Matrix, error) {
	if f.Rows == 0 && f.Cols == 0 {
		return nil, nil
	}
	if n, ok := mulInts(f.Rows, f.Cols); !ok || len(f.Data) != n {
		return nil, fmt.Errorf("core: matrix payload %dx%d with %d elements", f.Rows, f.Cols, len(f.Data))
	}
	return &mat.Matrix{Rows: f.Rows, Cols: f.Cols, Stride: f.Cols, Data: f.Data}, nil
}

// unpackTFactor rebuilds a stored T factor; replay reads only its float64
// matrix.
func unpackTFactor(f facMatrix) (*tFactor, error) {
	t, err := unpackMatrix(f)
	return &tFactor{t: t}, err
}

// packKeyedMap flattens a reflector map in ascending key order (gob encodes
// maps in random order; a sorted slice keeps the payload deterministic).
func packKeyedMap(m map[int]*tFactor) []facKeyed {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int, 0, len(m))
	for i := range m {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	out := make([]facKeyed, 0, len(keys))
	for _, i := range keys {
		out = append(out, facKeyed{I: i, M: packMatrix(m[i].t)})
	}
	return out
}

// packLUFactors flattens per-row LU factors in row order, skipping the
// rows without any.
func packLUFactors(ls []*luFactors) []facKeyed {
	var out []facKeyed
	for i, l := range ls {
		if l != nil {
			out = append(out, facKeyed{I: i, M: packMatrix(l.lu), Piv: append([]int(nil), l.piv...)})
		}
	}
	return out
}

// EncodeFactorization serializes the factorization state retained by the
// Result into a self-describing, checksummed byte stream. The encoding
// captures exactly what Solve/SolveBatch replay — DecodeFactorization
// returns a Result whose solves are bit-identical to this one's — and omits
// the trace and scheduler counters. It only reads the stored factors, so it
// is safe to call concurrently with Solve/SolveBatch.
func (r *Result) EncodeFactorization() ([]byte, error) {
	f := r.f
	if f == nil {
		return nil, fmt.Errorf("core: Result does not carry factorization state")
	}
	p := facPayload{
		Alg:       int(f.cfg.Alg),
		NB:        f.nb,
		GridP:     f.cfg.Grid.P,
		GridQ:     f.cfg.Grid.Q,
		Scope:     int(f.cfg.Scope),
		Variant:   int(f.cfg.Variant),
		IntraTree: int(f.cfg.IntraTree),
		InterTree: int(f.cfg.InterTree),
		Seed:      f.cfg.Seed,
		Criterion: f.cfg.Criterion,

		MT:    f.A.MT,
		NT:    f.A.NT,
		Tiles: make([]float64, f.A.MT*f.A.NT*f.nb*f.nb),

		Decisions: append([]bool(nil), f.report.Decisions...),
		Steps:     make([]facStep, len(f.steps)),

		N:          r.Report.N,
		LUSteps:    r.Report.LUSteps,
		QRSteps:    r.Report.QRSteps,
		Breakdown:  r.Report.Breakdown,
		WallNS:     r.Report.WallTime.Nanoseconds(),
		HPL3:       r.Report.HPL3,
		Growth:     r.Report.Growth,
		PeakGrowth: r.Report.PeakGrowth,

		X: append([]float64(nil), r.X...),

		Precision:   int(r.Report.Precision),
		StepF32:     append([]bool(nil), r.Report.StepF32...),
		Margins:     append([]float64(nil), r.Report.Margins...),
		F32Steps:    r.Report.F32Steps,
		Demotions:   r.Report.Demotions,
		RefineIters: r.Report.RefineIters,
		MarginMin:   r.Report.MarginMin,
		MarginMax:   r.Report.MarginMax,
	}
	if r.Report.F32Steps > 0 {
		p.A0 = packMatrix(f.a0)
	}
	tb := f.nb * f.nb
	for i := 0; i < f.A.MT; i++ {
		for j := 0; j < f.A.NT; j++ {
			t := packMatrix(f.A.Tile(i, j))
			copy(p.Tiles[(i*f.A.NT+j)*tb:], t.Data)
		}
	}
	for k, st := range f.steps {
		if st == nil {
			return nil, fmt.Errorf("core: step %d has no state to encode", k)
		}
		fs := facStep{
			K:       st.k,
			Rows:    append([]int(nil), st.rows...),
			Variant: int(st.variant),
			TGeqrt:  packKeyedMap(st.tGeqrt),
			TKill:   packKeyedMap(st.tKill),
		}
		if f.report.Decisions[k] {
			// The stacked panel factors and pivots matter only for the LU
			// replay; a restored (QR-decided) trial would be dead weight.
			fs.Piv = append([]int(nil), st.piv...)
			fs.Stack = packMatrix(st.stack)
		}
		if st.hlu != nil {
			fs.HasHLU = true
			for _, op := range st.hlu.ops {
				fs.HLU.Ops = append(fs.HLU.Ops, facOp{Kind: int(op.Kind), I: op.I, Piv: op.Piv})
			}
			fs.HLU.Heads = packLUFactors(st.hlu.heads)
			fs.HLU.Pairs = packLUFactors(st.hlu.pairs)
		}
		p.Steps[k] = fs
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		return nil, fmt.Errorf("core: encoding factorization: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := bytes.NewBuffer(make([]byte, 0, factHeaderLen+payload.Len()))
	out.Write(factMagic[:])
	binary.Write(out, binary.LittleEndian, uint32(factEncodingVersion))
	binary.Write(out, binary.LittleEndian, uint64(payload.Len()))
	out.Write(sum[:])
	out.Write(payload.Bytes())
	return out.Bytes(), nil
}

// DecodeFactorization reconstructs a Result from a stream produced by
// EncodeFactorization. The returned Result solves new right-hand sides via
// Solve/SolveBatch exactly as the original would have (bit-identically); it
// carries no trace and cannot be re-factored. A truncated, corrupted, or
// version-skewed stream fails with a descriptive error and never yields a
// partially initialized Result.
func DecodeFactorization(data []byte) (*Result, error) {
	if len(data) < factHeaderLen {
		return nil, fmt.Errorf("core: factorization stream truncated: %d bytes, header needs %d", len(data), factHeaderLen)
	}
	if !bytes.Equal(data[:8], factMagic[:]) {
		return nil, fmt.Errorf("core: not a factorization stream (bad magic)")
	}
	version := binary.LittleEndian.Uint32(data[8:12])
	if version < 1 || version > factEncodingVersion {
		return nil, fmt.Errorf("core: factorization version skew: stream v%d, this build reads v1–v%d", version, factEncodingVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if uint64(len(data)-factHeaderLen) != plen {
		return nil, fmt.Errorf("core: factorization stream truncated: %d payload bytes, header promises %d", len(data)-factHeaderLen, plen)
	}
	payload := data[factHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[20:20+sha256.Size]) {
		return nil, fmt.Errorf("core: factorization checksum mismatch (corrupted payload)")
	}

	var p facPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding factorization: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	tb := p.NB * p.NB

	ta := tile.New(p.MT, p.NT, p.NB)
	for i := 0; i < p.MT; i++ {
		for j := 0; j < p.NT; j++ {
			copy(ta.Tile(i, j).Data, p.Tiles[(i*p.NT+j)*tb:(i*p.NT+j+1)*tb])
		}
	}

	f := &fact{
		cfg: Config{
			Alg:       Algorithm(p.Alg),
			NB:        p.NB,
			Grid:      tile.Grid{P: p.GridP, Q: p.GridQ},
			Criterion: p.Criterion,
			Scope:     Scope(p.Scope),
			Variant:   LUVariant(p.Variant),
			IntraTree: tree.Tree(p.IntraTree),
			InterTree: tree.Tree(p.InterTree),
			Seed:      p.Seed,
		},
		A:           ta,
		nt:          p.NT,
		nb:          p.NB,
		steps:       make([]*stepState, p.NT),
		diagSolvers: make([]func(b *mat.Matrix), p.NT),
		report: &Report{
			Alg: Algorithm(p.Alg), N: p.N, NB: p.NB, NT: p.NT,
			GridP: p.GridP, GridQ: p.GridQ,
			Decisions: append([]bool(nil), p.Decisions...),
			LUSteps:   p.LUSteps, QRSteps: p.QRSteps,
			Breakdown: p.Breakdown,
			WallTime:  time.Duration(p.WallNS),
			HPL3:      p.HPL3, Growth: p.Growth, PeakGrowth: p.PeakGrowth,
			Precision: Precision(p.Precision),
			F32Steps:  p.F32Steps, Demotions: p.Demotions,
			RefineIters: p.RefineIters,
			MarginMin:   p.MarginMin, MarginMax: p.MarginMax,
		},
	}
	f.cfg.Precision = Precision(p.Precision)
	f.report.StepF32 = make([]bool, p.NT)
	copy(f.report.StepF32, p.StepF32)
	f.report.Margins = make([]float64, p.NT)
	for k := range f.report.Margins {
		f.report.Margins[k] = math.NaN()
	}
	copy(f.report.Margins, p.Margins)
	if len(p.Margins) == 0 {
		// v1 stream: no margin data was recorded, so the summary is NaN (the
		// zero values gob left in MarginMin/MarginMax would read as real 0s).
		f.report.MarginMin, f.report.MarginMax = math.NaN(), math.NaN()
	}
	a0, err := unpackMatrix(p.A0)
	if err != nil {
		return nil, fmt.Errorf("core: original-matrix payload: %w", err)
	}
	f.a0 = a0
	if a0 != nil {
		f.normA = a0.View(0, 0, p.N, p.N).NormInf()
	}

	for k := range p.Steps {
		st, err := unpackStep(&p.Steps[k], p.NT)
		if err != nil {
			return nil, fmt.Errorf("core: step %d: %w", k, err)
		}
		st.decision = p.Decisions[k]
		f.steps[k] = st
		if version < 3 {
			for i, tf := range st.tGeqrt {
				lapack.FormY(ta.Tile(i, st.k), tf.t)
			}
		}
		// The B variants leave block-triangular factors.
		if p.Decisions[k] && Algorithm(p.Alg) == LUQR {
			f.installDiagSolver(st)
		}
	}

	return &Result{X: p.X, Factored: ta, Report: f.report, f: f}, nil
}

// mulInts returns the product of its non-negative arguments, and false
// when one is negative or the product overflows an int.
func mulInts(xs ...int) (int, bool) {
	p := 1
	for _, x := range xs {
		if x < 0 || (x > 0 && p > math.MaxInt/x) {
			return 0, false
		}
		p *= x
	}
	return p, true
}

// validate rejects a payload that replay could not use: every field that
// Solve indexes — tile shapes, per-step slices, the grid and trees that
// rebuild a QR step's reduction, and each step's factors and pivots — must
// be in range, so that a decoded Result either solves or was never
// returned. Shape arithmetic is overflow-checked.
func (p *facPayload) validate() error {
	tiles, ok := mulInts(p.MT, p.NT, p.NB, p.NB)
	if p.NB <= 0 || p.MT != p.NT || !ok {
		return fmt.Errorf("core: factorization payload with invalid shape mt=%d nt=%d nb=%d", p.MT, p.NT, p.NB)
	}
	if len(p.Tiles) != tiles {
		return fmt.Errorf("core: factorization payload holds %d tile elements, want %d", len(p.Tiles), tiles)
	}
	if len(p.Decisions) != p.NT || len(p.Steps) != p.NT {
		return fmt.Errorf("core: factorization payload has %d decisions / %d steps for nt=%d", len(p.Decisions), len(p.Steps), p.NT)
	}
	order := p.NT * p.NB // no overflow: nt·nb ≤ nt²·nb² when nt ≥ 1
	if p.N < 0 || p.N > order {
		return fmt.Errorf("core: factorization payload order n=%d exceeds tiled order %d", p.N, order)
	}
	// Mixed-precision fields: v1 streams leave them empty (all-f64); v2
	// streams must carry consistent per-step slices, and a factorization
	// that accepted f32 steps must bring the matrix its refinement needs.
	if len(p.StepF32) != 0 && len(p.StepF32) != p.NT {
		return fmt.Errorf("core: factorization payload has %d f32 flags for nt=%d", len(p.StepF32), p.NT)
	}
	if len(p.Margins) != 0 && len(p.Margins) != p.NT {
		return fmt.Errorf("core: factorization payload has %d margins for nt=%d", len(p.Margins), p.NT)
	}
	if p.F32Steps > 0 && (p.A0.Rows != order || p.A0.Cols != order) {
		return fmt.Errorf("core: f32 factorization payload without a %d×%d original matrix", order, order)
	}
	if p.Alg < int(LUQR) || p.Alg > int(HLU) {
		return fmt.Errorf("core: factorization payload with unknown algorithm %d", p.Alg)
	}
	if p.GridP < 1 || p.GridQ < 1 {
		return fmt.Errorf("core: factorization payload with invalid grid %dx%d", p.GridP, p.GridQ)
	}
	for _, tr := range []int{p.IntraTree, p.InterTree} {
		if tr < int(tree.FlatTS) || tr > int(tree.Fibonacci) {
			return fmt.Errorf("core: factorization payload with unknown reduction tree %d", tr)
		}
	}
	for k := range p.Steps {
		if err := p.Steps[k].validate(k, p.NT, p.NB, p.Decisions[k]); err != nil {
			return fmt.Errorf("core: step %d: %w", k, err)
		}
	}
	return nil
}

// validate checks step k's replay state against the path replay takes
// through it (replayStep, installDiagSolver): an LU step replays its
// pairwise LU factors (facInc or facHLU) if it has them, else its variant's;
// a QR step replays the reflector factors the reduction tree names, and a
// missing one is an error replay reports itself.
func (fs *facStep) validate(k, nt, nb int, lu bool) error {
	if fs.K != k {
		return fmt.Errorf("step index %d", fs.K)
	}
	if fs.Variant < int(VarA1) || fs.Variant > int(VarB2) {
		return fmt.Errorf("unknown LU variant %d", fs.Variant)
	}
	for _, set := range [][]facKeyed{fs.TGeqrt, fs.TKill} {
		for _, kv := range set {
			if err := checkFactor("reflector", kv, nt, nb, nb, 0); err != nil {
				return err
			}
		}
	}
	if fs.HasInc {
		if err := checkFactor("incpiv diagonal", facKeyed{I: k, M: fs.Inc.L0, Piv: fs.Inc.PivK}, nt, nb, nb, nb); err != nil {
			return err
		}
		// The flat TS chain kills every row below the diagonal.
		seen := make([]bool, nt)
		for _, kv := range fs.Inc.Rows {
			if kv.I <= k {
				return fmt.Errorf("incpiv row %d above the diagonal", kv.I)
			}
			if err := checkFactor("incpiv", kv, nt, 2*nb, nb, 2*nb); err != nil {
				return err
			}
			seen[kv.I] = true
		}
		for i := k + 1; i < nt; i++ {
			if !seen[i] {
				return fmt.Errorf("incpiv row %d missing", i)
			}
		}
	}
	if fs.HasHLU {
		for _, op := range fs.HLU.Ops {
			bad := op.I < 0 || op.I >= nt
			switch tree.Kind(op.Kind) {
			case tree.OpGeqrt:
			case tree.OpTS, tree.OpTT:
				bad = bad || op.Piv < 0 || op.Piv >= nt
			default:
				bad = true
			}
			if bad {
				return fmt.Errorf("hlu operation %+v out of range", op)
			}
		}
		for _, kv := range fs.HLU.Heads {
			if err := checkFactor("hlu head", kv, nt, nb, nb, nb); err != nil {
				return err
			}
		}
		for _, kv := range fs.HLU.Pairs {
			if err := checkFactor("hlu pair", kv, nt, 2*nb, nb, 2*nb); err != nil {
				return err
			}
		}
	}
	if !lu || fs.HasInc || fs.HasHLU {
		return nil
	}
	switch LUVariant(fs.Variant) {
	case VarA1:
		for _, i := range fs.Rows {
			if i < 0 || i >= nt {
				return fmt.Errorf("pivot row %d out of range", i)
			}
		}
		if len(fs.Rows) == 0 || len(fs.Rows) > nt {
			return fmt.Errorf("%d pivot rows for nt=%d", len(fs.Rows), nt)
		}
		h := len(fs.Rows) * nb
		return checkFactor("stacked panel", facKeyed{I: k, M: fs.Stack, Piv: fs.Piv}, nt, h, nb, h)
	case VarB1:
		return checkPivots(fs.Piv, nb)
	default: // VarA2, VarB2: the diagonal tile's QR factor
		for _, kv := range fs.TGeqrt {
			if kv.I == k {
				return nil
			}
		}
		return fmt.Errorf("missing diagonal QR factor")
	}
}

// checkFactor checks one stored factor: its row key is a tile row, its
// matrix is rows×cols, and its pivots index a pivRows-row block.
func checkFactor(what string, kv facKeyed, nt, rows, cols, pivRows int) error {
	if kv.I < 0 || kv.I >= nt {
		return fmt.Errorf("%s row %d out of range", what, kv.I)
	}
	if kv.M.Rows != rows || kv.M.Cols != cols {
		return fmt.Errorf("%s factor for row %d is %dx%d, want %dx%d", what, kv.I, kv.M.Rows, kv.M.Cols, rows, cols)
	}
	if err := checkPivots(kv.Piv, pivRows); err != nil {
		return fmt.Errorf("%s row %d: %w", what, kv.I, err)
	}
	return nil
}

// checkPivots checks that Laswp can apply piv to a block of rows rows.
func checkPivots(piv []int, rows int) error {
	if len(piv) > rows {
		return fmt.Errorf("%d pivots for %d rows", len(piv), rows)
	}
	for _, p := range piv {
		if p < 0 || p >= rows {
			return fmt.Errorf("pivot %d out of range [0, %d)", p, rows)
		}
	}
	return nil
}

// unpackStep inverts the facStep packing. The step has been validated.
func unpackStep(fs *facStep, nt int) (*stepState, error) {
	st := &stepState{
		k:       fs.K,
		rows:    fs.Rows,
		piv:     fs.Piv,
		variant: LUVariant(fs.Variant),
	}
	var err error
	if st.stack, err = unpackMatrix(fs.Stack); err != nil {
		return nil, err
	}
	if len(fs.TGeqrt) > 0 || len(fs.TKill) > 0 {
		st.tGeqrt = make(map[int]*tFactor, len(fs.TGeqrt))
		st.tKill = make(map[int]*tFactor, len(fs.TKill))
		for _, kv := range fs.TGeqrt {
			if st.tGeqrt[kv.I], err = unpackTFactor(kv.M); err != nil {
				return nil, err
			}
		}
		for _, kv := range fs.TKill {
			if st.tKill[kv.I], err = unpackTFactor(kv.M); err != nil {
				return nil, err
			}
		}
	}
	hlu := fs.HLU
	if fs.HasInc {
		hlu = fs.Inc.asHLU(fs.K, nt)
	}
	if fs.HasInc || fs.HasHLU {
		st.hlu = newHLUState(nt, nil)
		for _, op := range hlu.Ops {
			st.hlu.ops = append(st.hlu.ops, tree.Op{Kind: tree.Kind(op.Kind), I: op.I, Piv: op.Piv})
		}
		if err := unpackLUFactors(st.hlu.heads, hlu.Heads); err != nil {
			return nil, err
		}
		if err := unpackLUFactors(st.hlu.pairs, hlu.Pairs); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// unpackLUFactors inverts packLUFactors into dst, indexed by row.
func unpackLUFactors(dst []*luFactors, kvs []facKeyed) error {
	for _, kv := range kvs {
		m, err := unpackMatrix(kv.M)
		if err != nil {
			return err
		}
		dst[kv.I] = &luFactors{lu: m, piv: kv.Piv}
	}
	return nil
}

// asHLU converts LU IncPiv step k of an older stream into the flat-TS HLU
// step that runs LU IncPiv: the diagonal GETRF is the head, and each killed
// row's stacked factors are its pair.
func (in *facInc) asHLU(k, nt int) facHLU {
	rows := make([]int, 0, nt-k)
	for i := k; i < nt; i++ {
		rows = append(rows, i)
	}
	h := facHLU{Heads: []facKeyed{{I: k, M: in.L0, Piv: in.PivK}}, Pairs: in.Rows}
	for _, op := range tree.Eliminations(rows, tree.FlatTS) {
		h.Ops = append(h.Ops, facOp{Kind: int(op.Kind), I: op.I, Piv: op.Piv})
	}
	return h
}
