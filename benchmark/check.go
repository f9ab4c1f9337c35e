package main

import (
	"fmt"
	"math"
	"sync"

	"luqr/internal/mat"
)

// maxHPL3 is the paper's acceptance band for the HPL3 backward error.
const maxHPL3 = 16

// tally counts the operations a workload attempted and the ones that
// failed: errors, non-200 responses (refusals included) and answers that
// are non-finite, hit a breakdown or fall outside the HPL3 band. The
// checks run outside the timed windows.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	hpl3      []float64
	reasons   map[string]int
}

// failure counts an operation that produced no answer to check.
func (t *tally) failure(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.fail(reason)
}

func (t *tally) fail(reason string) {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// solution recomputes HPL3 of x against the operator a and right-hand side
// b the benchmark generated, and counts x as failed unless it is finite,
// came without a breakdown and lies inside the band.
func (t *tally) solution(a *mat.Matrix, b, x []float64, breakdown bool) {
	h := math.Inf(1)
	if len(x) == a.Rows {
		h = mat.HPL3(a, x, b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case len(x) != a.Rows:
		t.fail(fmt.Sprintf("solution has %d entries, want %d", len(x), a.Rows))
	case breakdown:
		t.fail("breakdown")
	case math.IsNaN(h) || math.IsInf(h, 0):
		t.fail("non-finite HPL3")
	case h > maxHPL3:
		t.fail("HPL3 above the band")
	default:
		t.hpl3 = append(t.hpl3, h)
	}
}

func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
