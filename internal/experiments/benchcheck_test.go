package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSolverBenchRoundTrip generates a tiny schema-2 sweep and validates the
// emitted JSON against the contract: the same path the CI smoke exercises at
// a larger size.
func TestSolverBenchRoundTrip(t *testing.T) {
	var out, table bytes.Buffer
	o := SolverBenchOptions{
		N: 128, NB: 32, Reps: 1,
		Workers: []int{1, 2, 16}, // 16 > 4 tiles per side: must warn
		NBs:     []int{32, 48, 256},
	}
	if err := WriteSolverBench(o, &out, &table); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateSolverBench(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("generated report fails validation: %v", err)
	}
	if rep.N != 128 || rep.NB != 32 {
		t.Fatalf("report config = n%d nb%d, want n128 nb32", rep.N, rep.NB)
	}
	if len(rep.Solver) != 3 || len(rep.SimSolver) != 3 {
		t.Fatalf("sweep lengths = %d/%d, want 3/3", len(rep.Solver), len(rep.SimSolver))
	}
	// nb=48 pads (128 → 3 ragged tiles) and runs; nb=256 > N is skipped
	// with a warning, not silently.
	if len(rep.NBSweep) != 2 || rep.NBSweep[1].NB != 48 || rep.NBSweep[1].Tiles != 3 {
		t.Fatalf("nb sweep = %+v, want nb∈{32,48} with padded tile counts", rep.NBSweep)
	}
	var sawTiles, sawSkip bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "fewer tile columns") {
			sawTiles = true
		}
		if strings.Contains(w, "larger than N") {
			sawSkip = true
		}
	}
	if !sawTiles || !sawSkip {
		t.Fatalf("warnings = %q, want tile-count and oversized-nb warnings", rep.Warnings)
	}
	if !strings.Contains(table.String(), "warning:") {
		t.Fatal("warnings missing from the human-readable table")
	}
	if !strings.Contains(rep.SimNote, "SIMULATED") {
		t.Fatalf("sim note %q does not label the curve as simulated", rep.SimNote)
	}
	// The DAG has real parallelism, so the simulated curve must slope upward.
	if last := rep.SimSolver[len(rep.SimSolver)-1]; last.Speedup <= 1 {
		t.Fatalf("simulated speedup at w=%d is %.2f, want > 1", last.Workers, last.Speedup)
	}
	// The mixed section covers two operators × three precision settings, and
	// each forced-f32 point both engaged the float32 path and refined into
	// the band (ValidateSolverBench already gated the HPL3 values).
	if len(rep.Mixed) != 6 {
		t.Fatalf("mixed section has %d entries, want 6 (2 operators × 3 precisions)", len(rep.Mixed))
	}
	if rep.Mixed[0].Matrix != "random" || rep.Mixed[3].Matrix != "diagdom" {
		t.Fatalf("mixed operators = %q/%q, want random then diagdom",
			rep.Mixed[0].Matrix, rep.Mixed[3].Matrix)
	}
	for _, i := range []int{2, 5} {
		f32 := rep.Mixed[i]
		if f32.Precision != "f32" || f32.F32Steps+f32.Demotions == 0 {
			t.Fatalf("forced-f32 mixed entry = %+v, want f32 activity", f32)
		}
		if f32.F32Steps > 0 && f32.RefineIters == 0 {
			t.Fatalf("f32 factorization refined 0 rounds: %+v", f32)
		}
	}
}

// TestSolverBenchDefaults pins the production default configuration the
// satellite fix introduced: N=4096, nb=192, production nb sweep.
func TestSolverBenchDefaults(t *testing.T) {
	o := SolverBenchOptions{}.withDefaults()
	if o.N != 4096 || o.NB != 192 {
		t.Fatalf("defaults = N=%d nb=%d, want 4096/192", o.N, o.NB)
	}
	if len(o.NBs) != 3 || o.NBs[0] != 128 || o.NBs[2] != 256 {
		t.Fatalf("default nb sweep = %v, want {128,192,256}", o.NBs)
	}
	// nb=192 stays the default for any N: core.Run pads to the next tile
	// boundary, so divisibility is not required.
	o = SolverBenchOptions{N: 512}.withDefaults()
	if o.NB != 192 {
		t.Fatalf("nb default = %d for n=512, want 192 (padding handles the rest)", o.NB)
	}
}

func TestValidateSolverBenchRejects(t *testing.T) {
	base := func() *SolverBenchReport {
		return &SolverBenchReport{
			Schema: 2, N: 128, NB: 32, Grid: "2x2", Reps: 1,
			NBSweep: []NBSweepEntry{{NB: 32, Tiles: 4, WallSeconds: 0.1, GFlops: 1}},
			Solver:  []SolverBenchEntry{{Workers: 1, WallSeconds: 0.1, GFlops: 1}},
			SimNote: "SIMULATED", SimCriticalPath: 0.05, SimParallelism: 2,
			SimSolver: []SimScalingEntry{
				{Workers: 1, MakespanSeconds: 0.1, GFlops: 1, Speedup: 1},
				{Workers: 2, MakespanSeconds: 0.06, GFlops: 1.6, Speedup: 1.7},
			},
			Mixed: []MixedBenchEntry{
				{Matrix: "random", Precision: "f64", WallSeconds: 0.1, GFlops: 1, HPL3: 0.01},
				{Matrix: "random", Precision: "f32", WallSeconds: 0.07, GFlops: 1.4, F32Steps: 4,
					F32Epochs: 6, Conversions: 9, ConvMS: 0.2, RefineIters: 2, HPL3: 1.5},
			},
			Dispatch: []DispatchBenchEntry{{Workers: 1, NsPerTask: 300}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*SolverBenchReport)
		want   string
	}{
		{"schema skew", func(r *SolverBenchReport) { r.Schema = 1 }, "schema 1"},
		{"empty solver", func(r *SolverBenchReport) { r.Solver = nil }, "empty section"},
		{"zero rate", func(r *SolverBenchReport) { r.Solver[0].GFlops = 0 }, "degenerate solver"},
		{"missing sim note", func(r *SolverBenchReport) { r.SimNote = "" }, "provenance"},
		{"non-monotone sim", func(r *SolverBenchReport) { r.SimSolver[1].Speedup = 0.5 }, "not monotone"},
		{"bad tile count", func(r *SolverBenchReport) { r.NBSweep[0].Tiles = 7 }, "nb_sweep"},
		{"missing mixed", func(r *SolverBenchReport) { r.Mixed = nil }, "mixed-precision section"},
		{"bad mixed precision", func(r *SolverBenchReport) { r.Mixed[1].Precision = "half" }, "unknown precision"},
		{"mixed out of band", func(r *SolverBenchReport) { r.Mixed[1].HPL3 = 1e6 }, "refine to tolerance"},
		{"mixed nan marker", func(r *SolverBenchReport) { r.Mixed[1].HPL3 = -1 }, "refine to tolerance"},
		{"f32 never engaged", func(r *SolverBenchReport) { r.Mixed[1].F32Steps = 0 }, "no f32 activity"},
		{"epochs unwired", func(r *SolverBenchReport) { r.Mixed[1].F32Epochs = 0 }, "no residency epochs"},
		{"conversions unwired", func(r *SolverBenchReport) { r.Mixed[1].Conversions = 0 }, "no residency epochs"},
		{"auto demotes without steps", func(r *SolverBenchReport) {
			r.Mixed[1].Precision = "auto"
			r.Mixed[1].F32Steps = 0
			r.Mixed[1].F32Epochs = 0
			r.Mixed[1].Conversions = 0
			r.Mixed[1].Demotions = 3
		}, "no accepted f32 step"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base()
			tc.mutate(r)
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ValidateSolverBench(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// The intact report passes.
	data, _ := json.Marshal(base())
	if _, err := ValidateSolverBench(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}
}

func TestKernelBenchDiff(t *testing.T) {
	oldRep := KernelBenchReport{
		Schema: 1,
		Current: []KernelBenchEntry{
			{Kernel: "GETRF", NB: 128, GFlops: 1.355},
			{Kernel: "GEMM", NB: 128, GFlops: 20},
		},
	}
	newRep := KernelBenchReport{
		Schema:    1,
		KernelF64: "avx512",
		KernelF32: "avx512",
		Seed:      []KernelBenchEntry{{Kernel: "GETRF", NB: 128, GFlops: 1.0}},
		Current: []KernelBenchEntry{
			{Kernel: "GETRF", NB: 128, GFlops: 6.78},
			{Kernel: "GEMM", NB: 128, GFlops: 25},
			{Kernel: "GEQRT", NB: 192, GFlops: 4},
		},
	}
	enc := func(r KernelBenchReport) *bytes.Reader {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(data)
	}

	var out bytes.Buffer
	if err := KernelBenchDiff(enc(oldRep), enc(newRep), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"GETRF", "+400.4%", "(new)", "old GF/s",
		"kernel tables: old f64=unrecorded f32=unrecorded, new f64=avx512 f32=avx512", "warning: the files ran on different kernel tables"} {
		if !strings.Contains(got, want) {
			t.Fatalf("diff output missing %q:\n%s", want, got)
		}
	}
	// Files from the same tables print no warning.
	out.Reset()
	oldRep.KernelF64, oldRep.KernelF32 = "avx512", "avx512"
	if err := KernelBenchDiff(enc(oldRep), enc(newRep), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Contains(got, "warning") || !strings.Contains(got, "old f64=avx512 f32=avx512, new f64=avx512") {
		t.Fatalf("same-table diff header wrong:\n%s", got)
	}

	// Single-file mode: seed baseline vs. current.
	out.Reset()
	if err := KernelBenchDiff(nil, enc(newRep), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "seed baseline GF/s") || !strings.Contains(out.String(), "kernel tables: f64=avx512 f32=avx512") {
		t.Fatalf("single-file diff header wrong:\n%s", out.String())
	}

	// No overlap at all is an error, not an empty table.
	disjoint := KernelBenchReport{Current: []KernelBenchEntry{{Kernel: "TRSM", NB: 64, GFlops: 1}}}
	if err := KernelBenchDiff(enc(oldRep), enc(disjoint), &out); err == nil {
		t.Fatal("disjoint diff succeeded, want error")
	}
}
