// Command benchmark is the repository benchmark: it runs one named workload
// of the LU-QR hybrid solver from a seed, measures the end-to-end metrics
// with its own tracing off and, with -trace 1, makes a separate traced pass
// that times every layer from outside. Run it from the root of a checkout:
//
//	bash benchmark/run.sh --workload factor-qr --seed 1 --seconds 10 --trace 0
//
// The workloads (see BENCHMARK.json for why each was chosen):
//
//   - factor-qr: core.Run on the random operator, N=2304, nb=192, f64.
//   - factor-lu-mixed: the same on the diagdom operator with precision auto.
//   - serve: luqr-serve's defaults in process, two closed-loop clients
//     sending a seeded rotation of POST /v1/solve.
//
// Every workload reports the same end-to-end metrics, each measured on its
// main operation: a core.Run call on the factor workloads and a
// generator-named cache hit on serve.
//
//	setup_s       median of three set-ups: operator generation (and on serve
//	              the service start and hot-set warm-up) plus one untimed
//	              warm-up solve
//	op_ms_p50     median latency of the main operation
//	ops_per_s     main operations completed per second of their own time on
//	              the factor workloads; every request per second on serve
//	peak_rss_mb   the process's peak resident set (VmHWM); on serve, read
//	              once the run has served a fixed number of requests
//
// The failure ratio is the result line's failed/attempted: every error,
// non-200 response and answer outside the HPL3 ≤ 16 band counts, each
// checked against the operator and right-hand side the benchmark generated.
// The last line of standard output is the JSON result; the human-readable
// report above it and the spans of a traced pass also land in .bench_out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// outDir, under the checkout root, receives the report and span files.
const outDir = ".bench_out"

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// metric is one reported number with its sample count (0 when the value
// is a count or derived from other metrics).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects what one run prints.
type report struct {
	header []string
	e2e    []metric // end-to-end metrics of the untraced window
	views  []metric // the same results under their per-workload names
	layer  []metric // per-layer metrics of the traced pass
	checks []string // rationale checks of the traced pass
	tally  tally
	rec    *recorder // nil unless tracing
}

func (r *report) addE2E(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *report) addView(name string, v float64, unit string, n int) {
	r.views = append(r.views, metric{name, v, unit, n})
}

func (r *report) addLayer(name string, v float64, unit string, n int) {
	r.layer = append(r.layer, metric{name, v, unit, n})
}

// confirm records a rationale check of the traced pass.
func (r *report) confirm(ok bool, format string, args ...any) {
	verdict := "confirmed"
	if !ok {
		verdict = "CONTRADICTED"
	}
	r.checks = append(r.checks, fmt.Sprintf("%s: %s", fmt.Sprintf(format, args...), verdict))
}

var workloads = map[string]func(options, *report) error{
	"factor-qr":       func(o options, r *report) error { return runFactor(o, r, "random", false) },
	"factor-lu-mixed": func(o options, r *report) error { return runFactor(o, r, "diagdom", true) },
	"serve":           runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: factor-qr, factor-lu-mixed or serve")
	seed := fs.Int64("seed", 1, "seed of the operators, right-hand sides and request rotation")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1: split the window into an untraced and a traced half and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1}
	rep := &report{header: []string{fmt.Sprintf("workload %s  seed %d  window %v  trace %d  GOMAXPROCS %d",
		o.workload, o.seed, o.window, *traceFlag, goruntime.GOMAXPROCS(0))}}
	if o.trace {
		rep.rec = newRecorder()
	}
	if err := w(o, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := rep.matchDeclared("BENCHMARK.json", o.trace); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, *traceFlag))
	if o.trace {
		if err := rep.rec.write(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	var text strings.Builder
	rep.print(&text, o.trace)
	line, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	text.Write(line)
	text.WriteByte('\n')
	if err := os.WriteFile(base+".txt", []byte(text.String()), 0o644); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	io.WriteString(stdout, text.String())
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result(traced bool) resultLine {
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	out := resultLine{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; an absent sample reads as 0
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// matchDeclared checks that the run reports exactly the metrics, with the
// units, that the benchmark definition at path declares for its mode.
func (r *report) matchDeclared(path string, traced bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	declared, got := spec.EndToEnd, r.e2e
	if traced {
		declared, got = spec.PerLayer, r.layer
	}
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	var bad []string
	for _, m := range got {
		if u, ok := want[m.name]; !ok || u != m.unit {
			bad = append(bad, fmt.Sprintf("%s [%s] not declared", m.name, m.unit))
		}
		delete(want, m.name)
	}
	for name := range want {
		bad = append(bad, name+" not reported")
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics differ from %s: %s", path, strings.Join(bad, "; "))
	}
	return nil
}

func (r *report) print(w io.Writer, traced bool) {
	for _, h := range r.header {
		fmt.Fprintln(w, h)
	}
	table := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Fprintf(w, "  %-32s %14.6g  %-8s %s\n", m.name, m.value, m.unit, n)
		}
	}
	half := ""
	if traced {
		half = " (untraced half of the window)"
	}
	table("end-to-end"+half, r.e2e)
	table("per-workload views", append(r.views,
		metric{"fail_ratio", r.tally.failRatio(), "ratio", r.tally.attempted}))
	for reason, n := range r.tally.reasons {
		fmt.Fprintf(w, "  failed %d× %s\n", n, reason)
	}
	if !traced {
		return
	}
	table("per-layer (traced pass)", r.layer)
	if r.rec != nil {
		fmt.Fprintln(w, "span self time by layer")
		st := r.rec.selfTimes()
		var layers []string
		for l := range st {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "  %-16s spans=%-6d total=%-14v self=%v\n", l, st[l].Spans, st[l].Total, st[l].Own)
		}
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "rationale:", c)
	}
}
