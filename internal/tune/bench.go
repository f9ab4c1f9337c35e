package tune

import (
	"fmt"
	"math/rand"
	"time"

	"luqr/internal/core"
	"luqr/internal/mat"
)

// probeReps is how many timed runs each candidate gets; the fastest wins,
// which discards one-off scheduling hiccups without a full benchmark.
const probeReps = 2

// CoreBench is the default probe measurement: it times a reduced-order
// factorization (a few tiles of the candidate's NB — enough to exercise the
// panel kernels, trailing updates, and worker pool without paying the full
// O(N³)) and reports the LU-equivalent rate 2n³/3 / time. Rates are only
// compared between candidates of the same class, so the constant cancels.
func CoreBench(p Point, n int, alg string) (float64, error) {
	probeN := 4 * p.NB
	if probeN > n {
		probeN = n - n%p.NB
	}
	if probeN < p.NB {
		return 0, fmt.Errorf("tune: nb=%d does not fit n=%d", p.NB, n)
	}
	a := mat.New(probeN, probeN)
	rng := rand.New(rand.NewSource(42))
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, probeN)
	for i := range b {
		b[i] = 1
	}
	// The candidate's inner block size rides inside the run's own config,
	// so a concurrent job with a different tuned point keeps its own.
	cfg := core.Config{NB: p.NB, IB: p.IB, Workers: p.Workers}
	if alg != "" {
		parsed, err := core.ParseAlgorithm(alg)
		if err == nil {
			cfg.Alg = parsed
		}
	}

	work := a.Clone()
	best := time.Duration(0)
	for rep := 0; rep < probeReps; rep++ {
		copy(work.Data, a.Data)
		start := time.Now()
		if _, err := core.Run(work, b, cfg); err != nil {
			return 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	nn := float64(probeN)
	return (2.0 / 3.0) * nn * nn * nn / best.Seconds() / 1e9, nil
}
