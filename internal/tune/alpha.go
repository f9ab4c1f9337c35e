package tune

import (
	"math"
	"time"
)

// The α learner turns the paper's offline threshold search (§V: pick the
// largest α whose mean HPL3 stays within 2× the LUPP reference) into an
// online per-class feedback loop over finished jobs. Each observation
// carries the signals the offline search used — the criterion's LU/QR
// decision ratio, the measured (peak) growth, and the HPL3 backward error —
// and the learner nudges the class's α multiplicatively: raise while the
// criterion still vetoes LU steps and stability holds, back off hard on a
// growth or backward-error excursion (MIMD, like congestion control). The
// offline LUPP reference is unavailable online, so the smallest HPL3 ever
// observed for the class stands in for it.
const (
	// alphaDefault seeds a class's state when the first observation carries
	// no usable α — the same static default the service applied before.
	alphaDefault = 100
	// alphaMin / alphaMax clamp the learned threshold. alphaMin keeps the
	// criterion meaningful (α→0 is pure HQR, which needs no learning);
	// alphaMax stops runaway doubling on classes where LU never misbehaves.
	alphaMin = 0.25
	alphaMax = 1e6
	// alphaRaise is the multiplicative increase applied while the criterion
	// still rejects some LU steps and the run stayed stable; alphaBackoff
	// the divisor applied on an excursion — deliberately asymmetric so one
	// bad run undoes several good ones.
	alphaRaise   = 2
	alphaBackoff = 4
	// refHPL3Floor keeps the online LUPP surrogate away from zero: an
	// exactly-solved tiny system would otherwise make every later
	// observation an "excursion".
	refHPL3Floor = 0.01
	// Excursion thresholds: a single run's HPL3 more than 4× the best seen
	// for the class, or element growth past 1024, counts as an excursion.
	// The paper's offline rule compares MEAN HPL3 against 2× LUPP; single
	// samples are noisier, hence the looser 4×.
	alphaHPL3Budget = 4.0
	alphaGrowthCap  = 1024
)

// AlphaState is the learned robustness threshold for one (class, criterion)
// pair, persisted inside the class's table Entry.
type AlphaState struct {
	// Alpha is the current estimate a job with α unset should use.
	Alpha float64 `json:"alpha"`
	// Samples counts the observations folded in; Backoffs the excursions.
	Samples  int64 `json:"samples"`
	Backoffs int64 `json:"backoffs,omitempty"`
	// RefHPL3 is the smallest HPL3 observed for the class — the online
	// stand-in for the offline LUPP reference error.
	RefHPL3   float64 `json:"ref_hpl3,omitempty"`
	UpdatedAt string  `json:"updated_at"` // RFC 3339, from the tuner's clock
}

// Observation is one finished run's learning signal.
type Observation struct {
	// Criterion is the base criterion name ("max", "sum", "mumps") — α
	// semantics differ between families, so each learns separately.
	Criterion string
	// Alpha is the threshold the run actually used.
	Alpha float64
	// FracLU is the fraction of LU steps the criterion chose.
	FracLU float64
	// Growth and PeakGrowth are the final and peak element-growth factors
	// (PeakGrowth is 0 unless the run tracked it; the larger one is used).
	Growth, PeakGrowth float64
	// HPL3 is the run's scaled backward error.
	HPL3 float64
	// Breakdown reports an exactly-zero pivot.
	Breakdown bool
}

// LearnableCriterion reports whether α learning applies to the named
// criterion family: the three §III robustness criteria whose α is a real
// threshold. Random/always/never have no threshold to learn.
func LearnableCriterion(name string) bool {
	switch name {
	case "max", "sum", "mumps":
		return true
	}
	return false
}

// Observe folds one finished run into the class's α state and persists the
// table. It returns the updated state, or ok == false when the observation
// is not learnable (unknown criterion family). Safe for concurrent use.
func (t *Tuner) Observe(n int, alg string, o Observation) (AlphaState, bool) {
	if !LearnableCriterion(o.Criterion) {
		return AlphaState{}, false
	}
	key := classKey(n, alg)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked()
	m := t.tab.Machines[t.machine]
	if m == nil {
		m = make(map[string]Entry)
		t.tab.Machines[t.machine] = m
	}
	e := m[key]
	if e.Alphas == nil {
		e.Alphas = make(map[string]*AlphaState)
	}
	st := e.Alphas[o.Criterion]
	if st == nil {
		st = &AlphaState{Alpha: o.Alpha}
		if st.Alpha <= 0 {
			st.Alpha = alphaDefault
		}
		e.Alphas[o.Criterion] = st
	}
	growth := o.PeakGrowth
	if growth < o.Growth {
		growth = o.Growth
	}
	excursion := o.Breakdown || math.IsNaN(o.HPL3) || math.IsInf(o.HPL3, 0)
	if !excursion && st.RefHPL3 > 0 && o.HPL3 > alphaHPL3Budget*st.RefHPL3 {
		excursion = true
	}
	if !excursion && (math.IsNaN(growth) || growth > alphaGrowthCap) {
		excursion = true
	}
	if excursion {
		// Back off from the α that misbehaved (which may be lower than the
		// current estimate when the run pinned α explicitly).
		a := st.Alpha
		if o.Alpha > 0 && o.Alpha < a {
			a = o.Alpha
		}
		st.Alpha = math.Max(alphaMin, a/alphaBackoff)
		st.Backoffs++
		t.stats.AlphaBackoffs++
	} else {
		if ref := math.Max(o.HPL3, refHPL3Floor); st.RefHPL3 == 0 || ref < st.RefHPL3 {
			st.RefHPL3 = ref
		}
		switch {
		case o.FracLU < 1 && o.Alpha >= st.Alpha:
			// The criterion still vetoed LU on some steps at (at least) the
			// current estimate, and the run stayed stable — there is room
			// above.
			st.Alpha = math.Min(alphaMax, st.Alpha*alphaRaise)
		case o.FracLU >= 1 && o.Alpha > st.Alpha:
			// A stable all-LU run at a higher explicit α: adopt it outright.
			st.Alpha = math.Min(alphaMax, o.Alpha)
		}
	}
	st.Samples++
	st.UpdatedAt = t.now().UTC().Format(time.RFC3339)
	m[key] = e
	t.stats.AlphaUpdates++
	t.persistLocked()
	return *st, true
}

// Alpha returns the learned α state for a class and criterion family, or
// ok == false when nothing has been learned yet (the caller keeps its
// default). It never probes and never blocks on an in-flight probe.
func (t *Tuner) Alpha(n int, alg, criterion string) (AlphaState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loadLocked()
	e, ok := t.tab.Machines[t.machine][classKey(n, alg)]
	if !ok || e.Alphas == nil {
		return AlphaState{}, false
	}
	st := e.Alphas[criterion]
	if st == nil || st.Samples == 0 {
		return AlphaState{}, false
	}
	return *st, true
}
