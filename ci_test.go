package luqr

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIFuzzLegs: every fuzz target in the module has a flake-watch leg in
// CI that fuzzes it in its own package, and every fuzz leg caps minimizing
// a new input (-fuzzminimizetime), since under the default 60 s budget one
// minimization can take a whole 30 s leg.
func TestCIFuzzLegs(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	legRE := regexp.MustCompile(`-fuzz\s+(\w+)`)
	legs := map[string]string{} // target name → its command line
	for _, line := range strings.Split(string(ci), "\n") {
		m := legRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		legs[m[1]] = line
		if !strings.Contains(line, "-fuzzminimizetime") {
			t.Errorf("ci.yml: the %s leg has no -fuzzminimizetime", m[1])
		}
	}

	fuzzRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	targets := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Hidden directories and other modules (benchmark/) are not
			// this module's packages.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzRE.FindAllStringSubmatch(string(src), -1) {
			targets[m[1]] = true
			leg, ok := legs[m[1]]
			if !ok {
				t.Errorf("%s: %s has no -fuzz leg in ci.yml", path, m[1])
			} else if !strings.HasSuffix(strings.TrimSpace(leg), " "+pkg) {
				t.Errorf("ci.yml: the %s leg does not fuzz %s", m[1], pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for name := range legs {
		if !targets[name] {
			t.Errorf("ci.yml: the %s leg names no fuzz target", name)
		}
	}
}
