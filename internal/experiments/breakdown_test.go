package experiments

import (
	"bytes"
	"strings"
	"testing"

	"luqr/internal/tile"
)

// TestBreakdownReport checks the measured-vs-simulated report runs end to
// end and covers every recorded task on both sides of the table, and that
// timelineConfig's trace holds measured times for all five Table I kernel
// families.
func TestBreakdownReport(t *testing.T) {
	var buf bytes.Buffer
	s, err := Breakdown(Options{N: 320, NB: 40, Grid: tile.NewGrid(2, 2), Seed: 1, Workers: 2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks == 0 {
		t.Fatal("no tasks measured")
	}
	out := buf.String()
	for _, k := range []string{"GEMM", "TRSM", "GEQRT", "TSQRT", "TTQRT"} {
		if s.Kernels[k].Count == 0 {
			t.Errorf("kernel %s missing from measured stats (got %v)", k, s.KernelNames())
		}
	}
	for _, want := range []string{"kernel", "measured", "simulated", "critical path", "makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown output missing %q:\n%s", want, out)
		}
	}
}
