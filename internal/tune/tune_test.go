package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"luqr/internal/blas"
	"luqr/internal/core"
)

// fakeBench returns a deterministic rate per point so probe outcomes are
// reproducible: nb=192 wins, everything else loses.
func fakeBench(calls *[]Point) BenchFunc {
	return func(p Point, n int, alg string) (float64, error) {
		if calls != nil {
			*calls = append(*calls, p)
		}
		if p.NB == 192 {
			return 10 + float64(p.Workers), nil
		}
		return 5, nil
	}
}

// fakeClock advances one second per reading, starting from a fixed epoch —
// the probe's timestamps are fully determined.
func fakeClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func testTuner(path string, calls *[]Point) *Tuner {
	return New(Options{
		Path: path,
		Candidates: []Point{
			{NB: 128, IB: 32, Workers: 1},
			{NB: 192, IB: 32, Workers: 1},
			{NB: 256, IB: 32, Workers: 1},
		},
		Bench:   fakeBench(calls),
		Now:     fakeClock(),
		Machine: "test-machine",
	})
}

func TestProbeDeterministic(t *testing.T) {
	var calls1, calls2 []Point
	e1, probed, err := testTuner("", &calls1).Tune(768, "luqr")
	if err != nil || !probed {
		t.Fatalf("first Tune: probed=%v err=%v", probed, err)
	}
	e2, _, err := testTuner("", &calls2).Tune(768, "luqr")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Point != e2.Point || e1.GFlops != e2.GFlops || e1.ProbedAt != e2.ProbedAt {
		t.Fatalf("probe not deterministic: %+v vs %+v", e1, e2)
	}
	if e1.NB != 192 {
		t.Fatalf("wrong winner: %+v", e1)
	}
	if e1.ProbedAt != "2026-01-02T03:04:06Z" {
		t.Fatalf("fake clock not honored: %q", e1.ProbedAt)
	}
	if len(calls1) != 3 || len(calls2) != 3 {
		t.Fatalf("expected 3 probes per sweep, got %d and %d", len(calls1), len(calls2))
	}
}

func TestCandidateFilteringByDivisibility(t *testing.T) {
	var calls []Point
	e, _, err := testTuner("", &calls).Tune(512, "luqr") // 192 does not divide 512
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range calls {
		if 512%p.NB != 0 {
			t.Fatalf("probed non-divisor nb=%d", p.NB)
		}
	}
	if e.NB != 128 && e.NB != 256 {
		t.Fatalf("winner nb=%d does not divide 512", e.NB)
	}
	// No candidate fits a prime order: the tuner declines with an error.
	if _, _, err := testTuner("", nil).Tune(101, "luqr"); err == nil {
		t.Fatal("expected an error when no candidate divides n")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "tuning.json")
	var calls []Point
	tun := testTuner(path, &calls)
	e1, probed, err := tun.Tune(768, "luqr")
	if err != nil || !probed {
		t.Fatalf("first Tune: probed=%v err=%v", probed, err)
	}
	if len(calls) != 3 {
		t.Fatalf("first Tune probed %d points, want 3", len(calls))
	}
	// Same process, same class: memory hit, no new probes.
	if _, probed, _ := tun.Tune(768, "luqr"); probed {
		t.Fatal("second Tune in-process re-probed")
	}
	// Fresh tuner (a restart): the persisted table answers, probe skipped.
	calls = calls[:0]
	tun2 := testTuner(path, &calls)
	e2, probed, err := tun2.Tune(768, "luqr")
	if err != nil {
		t.Fatal(err)
	}
	if probed || len(calls) != 0 {
		t.Fatalf("restart re-probed (probed=%v, %d bench calls)", probed, len(calls))
	}
	if e1.Point != e2.Point || e1.GFlops != e2.GFlops || e1.ProbedAt != e2.ProbedAt {
		t.Fatalf("persisted entry differs: %+v vs %+v", e1, e2)
	}
	st := tun2.Stats()
	if st.Hits != 1 || st.Probes != 0 || st.Classes != 1 {
		t.Fatalf("stats after warm restart: %+v", st)
	}
}

func TestMachineMismatchReprobes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuning.json")
	if _, _, err := testTuner(path, nil).Tune(768, "luqr"); err != nil {
		t.Fatal(err)
	}
	other := New(Options{
		Path:       path,
		Candidates: []Point{{NB: 128, IB: 32, Workers: 1}},
		Bench:      fakeBench(nil),
		Now:        fakeClock(),
		Machine:    "other-machine",
	})
	e, probed, err := other.Tune(768, "luqr")
	if err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("entry probed on one machine was applied on another")
	}
	if e.NB != 128 {
		t.Fatalf("re-probe ignored the machine's own candidates: %+v", e)
	}
	// Both machines' entries coexist in the file.
	tab, q, err := loadTable(path)
	if err != nil || q {
		t.Fatalf("loadTable: q=%v err=%v", q, err)
	}
	if len(tab.Machines) != 2 {
		t.Fatalf("want 2 machines in table, got %d", len(tab.Machines))
	}
}

// TestMachineIDNamesKernelTable: the fingerprint names the kernel table
// blas selected, and each table gives a distinct fingerprint, so an entry
// probed under the AVX2 micro-kernel re-probes under the AVX-512 one (both
// report SIMD, which the old fingerprint keyed on; TestMachineMismatchReprobes
// covers the re-probe itself).
func TestMachineIDNamesKernelTable(t *testing.T) {
	if got, want := MachineID(), machineID(blas.KernelID[float64]()); got != want {
		t.Fatalf("MachineID() = %q, want %q", got, want)
	}
	seen := map[string]string{}
	for _, id := range []string{"avx512", "avx2", "portable"} {
		m := machineID(id)
		if !strings.HasSuffix(m, "/kernel="+id) {
			t.Fatalf("machineID(%q) = %q does not name the table", id, m)
		}
		if prev, dup := seen[m]; dup {
			t.Fatalf("tables %q and %q share the fingerprint %q", prev, id, m)
		}
		seen[m] = id
	}
}

// tableDamage corrupts a saved tuning table, one way per class of damage a
// loader must quarantine.
var tableDamage = map[string]func(path string) error{
	"truncated": func(path string) error {
		data, _ := os.ReadFile(path)
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	},
	"bitflip": func(path string) error {
		data, _ := os.ReadFile(path)
		// Flip a byte inside the table payload, invalidating the checksum
		// while keeping the JSON well-formed where possible.
		for i := range data {
			if data[i] == '1' {
				data[i] = '7'
				break
			}
		}
		return os.WriteFile(path, data, 0o644)
	},
	"version-skew": func(path string) error {
		data, _ := os.ReadFile(path)
		var w fileWrapper
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
		w.Version = TableVersion + 99
		out, err := json.Marshal(w)
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	},
	"garbage": func(path string) error {
		return os.WriteFile(path, []byte("not json at all"), 0o644)
	},
	"workers-huge": func(path string) error {
		// Well-formed and correctly sealed, but a worker count the engine
		// could not allocate.
		return editTable(path, func(tab *table) {
			for _, classes := range tab.Machines {
				for c, e := range classes {
					e.Workers = 1 << 36
					classes[c] = e
				}
			}
		})
	},
}

// editTable rewrites the table at path through edit and re-seals it with a
// matching checksum, so only the loader's own validation can reject it.
func editTable(path string, edit func(*table)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var w fileWrapper
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	var tab table
	if err := json.Unmarshal(w.Table, &tab); err != nil {
		return err
	}
	edit(&tab)
	if w.Table, err = json.Marshal(&tab); err != nil {
		return err
	}
	w.Checksum = checksum(w.Table)
	out, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func TestCorruptTableQuarantinedAndReprobed(t *testing.T) {
	for name, damage := range tableDamage {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tuning.json")
			if _, _, err := testTuner(path, nil).Tune(768, "luqr"); err != nil {
				t.Fatal(err)
			}
			if err := damage(path); err != nil {
				t.Fatal(err)
			}
			var calls []Point
			tun := testTuner(path, &calls)
			_, probed, err := tun.Tune(768, "luqr")
			if err != nil {
				t.Fatal(err)
			}
			if !probed {
				t.Fatal("damaged table was trusted")
			}
			if st := tun.Stats(); st.LoadErrors != 1 {
				t.Fatalf("LoadErrors = %d, want 1", st.LoadErrors)
			}
			// The damaged file was moved aside, and a fresh valid table was
			// written by the re-probe.
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if tab, q, err := loadTable(path); err != nil || q || len(tab.Machines) != 1 {
				t.Fatalf("re-written table unreadable: q=%v err=%v", q, err)
			}
		})
	}
}

// FuzzLoadTable: whatever the file holds, loadTable either quarantines it
// with an error, or returns a table whose entries are in range (nb and ib
// non-negative, nb = 0 being the α-only entry, workers within
// core.MaxWorkers) and that saveTable and loadTable round-trip unchanged.
// Each input is loaded as it is and again re-sealed with a matching
// checksum, so mutations reach the body's parser and validation. Seeds are
// a probed table with learned α states and every class of tableDamage.
func FuzzLoadTable(f *testing.F) {
	path := filepath.Join(f.TempDir(), "tuning.json")
	tun := testTuner(path, nil)
	if _, _, err := tun.Tune(768, "luqr"); err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{512, 768} {
		tun.Observe(n, "luqr", Observation{Criterion: "max", Alpha: 100, FracLU: 0.5, Growth: 2, HPL3: 0.001})
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, damage := range tableDamage {
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			f.Fatal(err)
		}
		if err := damage(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tuning.json")
		for _, in := range [][]byte{data, resealTable(data)} {
			if in == nil {
				continue
			}
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			tab, quarantined, err := loadTable(path)
			if err != nil {
				if !quarantined {
					t.Fatalf("error without quarantine: %v", err)
				}
				if _, serr := os.Stat(path + ".corrupt"); serr != nil {
					t.Fatalf("damaged table not moved aside: %v", serr)
				}
				continue
			}
			for m, classes := range tab.Machines {
				for c, e := range classes {
					if e.NB < 0 || e.IB < 0 || e.Workers < 0 || e.Workers > core.MaxWorkers {
						t.Fatalf("loaded %s %s: %v", m, c, e.Point)
					}
				}
			}
			if err := saveTable(path, tab); err != nil {
				t.Fatal(err)
			}
			back, q, err := loadTable(path)
			if err != nil || q {
				t.Fatalf("saved table does not load: q=%v err=%v", q, err)
			}
			// The table's identity is its JSON form: an empty α map saves as
			// absent, which is the same table.
			want, _ := json.Marshal(tab)
			got, _ := json.Marshal(back)
			if string(got) != string(want) {
				t.Fatalf("round trip changed the table:\n%s\n%s", want, got)
			}
		}
	})
}

// resealTable re-computes the checksum of a table file that parses as an
// envelope, or returns nil.
func resealTable(data []byte) []byte {
	var w fileWrapper
	if json.Unmarshal(data, &w) != nil {
		return nil
	}
	w.Checksum = checksum(w.Table)
	out, err := json.Marshal(w)
	if err != nil {
		return nil
	}
	return out
}

func TestBenchFailuresFallThrough(t *testing.T) {
	// One failing candidate does not sink the probe; all failing returns an
	// error and nothing is persisted.
	path := filepath.Join(t.TempDir(), "tuning.json")
	partial := New(Options{
		Path:       path,
		Candidates: []Point{{NB: 128, IB: 32, Workers: 1}, {NB: 256, IB: 32, Workers: 1}},
		Bench: func(p Point, n int, alg string) (float64, error) {
			if p.NB == 128 {
				return 0, fmt.Errorf("boom")
			}
			return 3, nil
		},
		Now:     fakeClock(),
		Machine: "m",
	})
	e, _, err := partial.Tune(768, "luqr")
	if err != nil || e.NB != 256 {
		t.Fatalf("partial failure: e=%+v err=%v", e, err)
	}

	allFail := New(Options{
		Candidates: []Point{{NB: 128, IB: 32, Workers: 1}},
		Bench: func(Point, int, string) (float64, error) {
			return 0, fmt.Errorf("boom")
		},
		Now:     fakeClock(),
		Machine: "m",
	})
	if _, _, err := allFail.Tune(768, "luqr"); err == nil {
		t.Fatal("expected error when every probe fails")
	}
}

func TestCoreBenchSmoke(t *testing.T) {
	// The real probe measurement on a tiny problem: just verify it runs and
	// returns a positive rate.
	gf, err := CoreBench(Point{NB: 16, IB: 8, Workers: 1}, 64, "luqr")
	if err != nil {
		t.Fatal(err)
	}
	if gf <= 0 {
		t.Fatalf("CoreBench rate = %g", gf)
	}
}
