package service

import (
	"fmt"
	"math"
	"math/rand"

	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/lapack"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tune"
)

// MatrixSpec names the operator of a request: either a generator from the
// experiment set ("random", "fiedler", ...) with a seed, or explicit
// row-major data. Generator-specified matrices cache by (gen, n, seed) and
// never ship N² floats over the wire. Parsing only validates the spec and
// derives the cache digest; the operator itself is built by the job worker
// that factors it, after a cache and store miss, so a hit never generates or
// copies N² floats.
type MatrixSpec struct {
	N    int       `json:"n"`
	Gen  string    `json:"gen,omitempty"`
	Seed int64     `json:"seed,omitempty"`
	Data []float64 `json:"data,omitempty"`

	// prefix is the digest state of Data when the decoder's memo shared
	// the array (dataMemo), nil otherwise.
	prefix *dataPrefix
}

// ConfigSpec is the wire form of core.Config. Zero values take the library
// defaults (alg=luqr, nb=40, 1x1 grid, max criterion with alpha=100).
//
// Alpha is a pointer so an explicit `"alpha": 0` — the α = 0 degenerate
// case of §III, where every criterion refuses LU and the run is pure HQR —
// is distinguishable from the field being absent. A plain float64 silently
// remapped requested-0 to the default. An absent alpha resolves to the
// class's learned value when α learning is on (Options.LearnAlpha and a
// tuner with samples for the class), else to the paper's default 100.
type ConfigSpec struct {
	Alg       string   `json:"alg,omitempty"`
	NB        int      `json:"nb,omitempty"`
	IB        int      `json:"ib,omitempty"`
	P         int      `json:"p,omitempty"`
	Q         int      `json:"q,omitempty"`
	Criterion string   `json:"criterion,omitempty"`
	Alpha     *float64 `json:"alpha,omitempty"`
	Variant   string   `json:"variant,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	// Precision selects the kernel precision: "f64" (default), "auto"
	// (criterion margin picks float32 per LU step, refined in the solve), or
	// "f32" (every kernel forced through the float32 path). Algorithms
	// without float32 coverage silently run f64; the cache digest reflects
	// the EFFECTIVE precision, so such requests share the f64 factorization.
	Precision string `json:"precision,omitempty"`
}

// SolveRequest is the body of POST /v1/solve: solve A·x = rhs, reusing the
// cached factorization of A when one exists. RHS is optional (default: the
// all-ones vector).
type SolveRequest struct {
	Matrix MatrixSpec `json:"matrix"`
	Config ConfigSpec `json:"config"`
	RHS    []float64  `json:"rhs,omitempty"`
}

// SubmitRequest is the body of POST /v1/jobs, which has a solve's shape:
// the job factors and solves against RHS, and the factorization lands in
// the cache either way.
type SubmitRequest = SolveRequest

// parsedRequest is a validated request: the operator's spec, the
// right-hand side, the resolved core.Config, and the cache key its
// factorization stores under. The operator is built only on demand
// (operator), by the worker that factors it.
type parsedRequest struct {
	spec      MatrixSpec
	gen       matgen.Generator // nil for explicit data
	b         []float64
	cfg       core.Config
	key       string
	criterion string
	// tuned is set when the autotuner chose the tile size (request left nb
	// unset and a tuner is configured); it is echoed in the job view.
	tuned *tune.Entry
	// alpha is the effective robustness threshold of a LUQR run and
	// alphaSource how it was resolved: "explicit" (the request set it),
	// "learned" (the tuner's per-class α), or "default" (100).
	alpha       float64
	alphaSource string
	// alphaCrit is the base criterion family ("max", "sum", "mumps") when
	// this run's outcome should feed the α learner, "" otherwise.
	alphaCrit string
}

// parse validates a request against the service limits without building
// the operator. opts.MaxN guards against a single request exhausting memory.
// With a tuner configured, requests that leave nb unset resolve it through
// the tuning table (first use of a class probes and persists) — the tuned
// nb, ib, and (with learning on) α land in cfg before the cache key is
// derived, so differently-tuned classes never collide in the factorization
// cache or the disk store.
func parse(spec MatrixSpec, cs ConfigSpec, rhs []float64, opts Options) (*parsedRequest, error) {
	tuner := opts.Tuner
	n := spec.N
	if n <= 0 {
		return nil, fmt.Errorf("matrix.n must be positive, got %d", n)
	}
	if n > opts.MaxN {
		return nil, fmt.Errorf("matrix.n=%d exceeds the service limit %d", n, opts.MaxN)
	}

	var gen matgen.Generator
	switch {
	case spec.Gen != "" && spec.Data != nil:
		return nil, fmt.Errorf("matrix.gen and matrix.data are mutually exclusive")
	case spec.Gen != "":
		e, err := matgen.ByName(spec.Gen)
		if err != nil {
			return nil, err
		}
		if n < e.MinN {
			return nil, fmt.Errorf("matrix.gen %q needs n >= %d, got %d", spec.Gen, e.MinN, n)
		}
		gen = e.Gen
	case spec.Data != nil:
		if len(spec.Data) != n*n {
			return nil, fmt.Errorf("matrix.data has %d entries, want n*n = %d", len(spec.Data), n*n)
		}
	default:
		return nil, fmt.Errorf("matrix needs either gen or data")
	}

	var cfg core.Config
	if cs.Alg != "" {
		alg, err := core.ParseAlgorithm(cs.Alg)
		if err != nil {
			return nil, err
		}
		cfg.Alg = alg
	}
	cfg.NB = cs.NB
	if cs.IB < 0 {
		return nil, fmt.Errorf("config.ib must be non-negative, got %d", cs.IB)
	}
	cfg.IB = cs.IB
	var tuned *tune.Entry
	if cfg.NB <= 0 && tuner != nil {
		if e, _, err := tuner.Tune(n, cfg.Alg.String()); err == nil {
			cfg.NB = e.NB
			if cfg.IB == 0 && e.IB > 0 {
				cfg.IB = e.IB
			}
			tuned = &e
		}
	}
	if cfg.NB <= 0 {
		cfg.NB = 40
	}
	if cfg.IB == 0 {
		// Pin the effective inner block size now: it is part of the cache
		// digest, and a digest derived from "whatever the process default
		// happens to be at run time" would not name the factors it stores.
		cfg.IB = lapack.PanelIB()
	}
	if n%cfg.NB != 0 {
		return nil, fmt.Errorf("n=%d is not a multiple of nb=%d", n, cfg.NB)
	}
	if (cs.P == 0) != (cs.Q == 0) {
		return nil, fmt.Errorf("config.p and config.q must be set together")
	}
	if cs.P < 0 || cs.Q < 0 {
		return nil, fmt.Errorf("config.p and config.q must be non-negative")
	}
	cfg.Grid.P, cfg.Grid.Q = cs.P, cs.Q
	if cs.Alpha != nil && (*cs.Alpha < 0 || math.IsNaN(*cs.Alpha)) {
		return nil, fmt.Errorf("config.alpha must be non-negative, got %g", *cs.Alpha)
	}
	critName := cs.Criterion
	var alpha float64
	var alphaSource, alphaCrit string
	if cfg.Alg == core.LUQR {
		if critName == "" {
			critName = "max"
		}
		// Resolve the effective threshold: an explicit alpha is honored as
		// given (including 0 — pure HQR: no pivot ever clears α·reference);
		// an absent one takes the class's learned α when learning is on and
		// the tuner has samples for this (class, criterion family), else the
		// paper's default 100.
		alpha, alphaSource = 100.0, "default"
		if cs.Alpha != nil {
			alpha, alphaSource = *cs.Alpha, "explicit"
		} else if opts.LearnAlpha && tuner != nil && tune.LearnableCriterion(critName) {
			if st, ok := tuner.Alpha(n, cfg.Alg.String(), critName); ok {
				alpha, alphaSource = st.Alpha, "learned"
			}
		}
		crit, err := criteria.Parse(critName, alpha)
		if err != nil {
			return nil, err
		}
		cfg.Criterion = crit
		if opts.LearnAlpha && tuner != nil && tune.LearnableCriterion(critName) {
			alphaCrit = critName
		}
		critName = fmt.Sprintf("%s/%g", critName, alpha)
	} else {
		critName = ""
	}
	if cs.Variant != "" {
		v, err := core.ParseVariant(cs.Variant)
		if err != nil {
			return nil, err
		}
		cfg.Variant = v
	}
	prec, err := core.ParsePrecision(cs.Precision)
	if err != nil {
		return nil, err
	}
	cfg.Precision = prec
	if cs.Workers < 0 {
		return nil, fmt.Errorf("config.workers must be non-negative")
	}
	cfg.Workers = cs.Workers
	if cfg.Workers == 0 && tuned != nil && tuned.Workers > 0 {
		cfg.Workers = tuned.Workers
	}
	if cfg.Workers > core.MaxWorkers {
		return nil, fmt.Errorf("config.workers=%d exceeds the limit %d", cfg.Workers, core.MaxWorkers)
	}
	cfg.Seed = cs.Seed

	b := rhs
	if b == nil {
		b = make([]float64, n)
		for i := range b {
			b[i] = 1
		}
	} else if len(b) != n {
		return nil, fmt.Errorf("rhs has %d entries, want n = %d", len(b), n)
	}

	return &parsedRequest{
		spec:        spec,
		gen:         gen,
		b:           b,
		cfg:         cfg,
		key:         digestKey(spec, cfg, critName),
		criterion:   critName,
		tuned:       tuned,
		alpha:       alpha,
		alphaSource: alphaSource,
		alphaCrit:   alphaCrit,
	}, nil
}

// operator builds the request's matrix: the generator's output, or a view of
// the decoded matrix.data — core.Run only reads its operand, so the data
// needs no copy. The data may be shared with other requests through the
// decoder's memo (dataMemo), which is one more reason nothing here or in
// core.Run may write to it.
func (p *parsedRequest) operator() *mat.Matrix {
	n := p.spec.N
	if p.gen != nil {
		return p.gen(n, rand.New(rand.NewSource(p.spec.Seed)))
	}
	return &mat.Matrix{Rows: n, Cols: n, Stride: n, Data: p.spec.Data}
}
