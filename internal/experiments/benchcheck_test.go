package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

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
