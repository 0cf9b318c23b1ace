// Command pipebench is PDT's pipeline benchmark. It drives the toolkit
// through its public Go packages only — the C++ frontend (pp, parse,
// sema), the IL analyzer, the PDB writer and reader, pdbio, ductape,
// query, analysis, corpus, pdbd and taustream — on inputs made by the
// internal/workload generators, times the calls from outside, checks
// every output against a reference that does not come from the code
// under test, and prints one JSON result line.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash pipebench/run.sh --workload compile|merge|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, read from spans recorded
// around each call (written to .bench_build/trace/) and from the obs
// instruments the program already exposes. README.md explains every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state one workload run shares with the harness.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workdir string

	checks checks
	tr     *tracer // nil when not tracing

	// e2e are the end-to-end metrics (every workload fills all of
	// them); layers are the per-layer metrics (every workload fills
	// all of them, 0 for a layer that does no work in it); report
	// are extra human-readable lines printed before the result.
	e2e    map[string]metric
	layers map[string]metric
	report []string
}

func (e *env) setE2E(name string, v float64, unit string) { e.e2e[name] = metric{v, unit} }
func (e *env) setLayer(name string, v float64, unit string) {
	e.layers[name] = metric{v, unit}
}
func (e *env) printf(format string, args ...any) {
	e.report = append(e.report, fmt.Sprintf(format, args...))
}

// checks counts attempted and failed output checks; a failed check is
// a failed operation and makes the run incorrect.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	msgs      []string
}

// op records one checked operation. A non-empty problem fails it.
func (c *checks) op(problem string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if problem != "" {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, problem)
		}
	}
}

var workloads = map[string]func(*env) error{
	"compile": runCompile,
	"merge":   runMerge,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload: compile, merge or serve")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for generated files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: pipebench --workload compile|merge|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: dir,
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
	}
	if e.traced {
		e.tr = newTracer()
		zeroLayers(e)
	}
	err := run(e)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	e.setE2E("peak_rss_mb", peakRSSMB(), "MB")

	for _, line := range e.report {
		fmt.Println(line)
	}
	for _, m := range e.checks.msgs {
		fmt.Fprintln(os.Stderr, "pipebench: check failed:", m)
	}
	res := result{
		Correct:   e.checks.failed == 0 && e.checks.attempted > 0,
		Attempted: e.checks.attempted,
		Failed:    e.checks.failed,
		Metrics:   e.e2e,
	}
	if e.traced {
		res.Metrics = e.layers
		path := filepath.Join(filepath.Dir(*workdir), "trace", fmt.Sprintf("%s-%d.json", *name, *seed))
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "pipebench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", e.tr.len(), path)
	}
	printMetrics(res.Metrics)
	fmt.Printf("error_rate %.6g ratio (%d failed of %d checked operations)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-26s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// layerUnits lists every per-layer metric. Each workload reports all
// of them; a layer that does no work in a workload reads 0 there, and
// an exponent reads 0 on a workload without a size ladder for it.
var layerUnits = [][2]string{
	{"pp.busy_s", "s"}, {"pp.tokens", "count"}, {"pp.exponent", "exponent"},
	{"parse.busy_s", "s"}, {"parse.decls", "count"},
	{"sema.busy_s", "s"}, {"sema.instantiations", "count"}, {"sema.bodies", "count"}, {"sema.exponent", "exponent"},
	{"ilanalyzer.busy_s", "s"}, {"ilanalyzer.items", "count"}, {"ilanalyzer.exponent", "exponent"},
	{"pdb.write_s", "s"}, {"pdb.write_bin_s", "s"}, {"pdb.read_bin_s", "s"}, {"pdb.rewrite_s", "s"},
	{"pdb.bin_bytes", "bytes"}, {"pdb.write.exponent", "exponent"},
	{"pdbio.load_s", "s"}, {"pdbio.merge_s", "s"}, {"pdbio.bytes_read", "bytes"},
	{"ductape.merge_s", "s"}, {"ductape.merge_items", "count"}, {"ductape.merge.exponent", "exponent"},
	{"query.graph_s", "s"}, {"query.fingerprint_s", "s"}, {"query.nodes", "count"}, {"query.edges", "count"},
	{"analysis.lint_s", "s"}, {"analysis.findings", "count"},
	{"corpus.open_s", "s"}, {"corpus.tree_s", "s"},
	{"pdbd.hit_p50_ms", "ms"}, {"pdbd.miss_p50_ms", "ms"}, {"pdbd.miss_p99_ms", "ms"},
	{"pdbd.mem_hit_ratio", "ratio"}, {"pdbd.coalesced", "count"}, {"pdbd.dup_miss_ratio", "ratio"},
	{"pdbd.cache_carried", "count"}, {"pdbd.cache_dropped", "count"},
	{"taustream.ingest_p50_ms", "ms"}, {"taustream.events", "count"},
	{"other.busy_s", "s"}, {"trace.overhead_s", "s"},
}

// zeroLayers sets every per-layer metric to 0 before a traced run
// fills in the layers its workload exercises.
func zeroLayers(e *env) {
	for _, l := range layerUnits {
		e.setLayer(l[0], 0, l[1])
	}
}

// --- statistics ---------------------------------------------------------

// median of a non-empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// sumOfMedians is the sum over the pieces of a timed sequence of each
// piece's median: samples[i][k] is piece k's time in the i-th run of
// the sequence. A burst of host noise lands on one piece of one run
// and moves that piece's median little, where it would move a whole
// run's total; the sum stays the typical time of the whole sequence.
func sumOfMedians(samples [][]float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for k := range samples[0] {
		col := make([]float64, len(samples))
		for i, s := range samples {
			col[i] = s[k]
		}
		sum += median(col)
	}
	return sum
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// settle collects garbage and flushes dirty file data, so a timed
// set-up or pass starts from the same state and does not pay for the
// garbage or writeback of the one before it.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// measure paces a workload's passes over the run's measuring time. It
// starts a pass only if one more of the length of the last would end
// in time, and always runs at least two, so every run measures whole
// passes and does not overrun by a pass.
type measure struct {
	deadline time.Time
	t0       time.Time
	last     time.Duration
}

func newMeasure(d time.Duration) *measure { return &measure{deadline: time.Now().Add(d)} }

func (m *measure) more(done int) bool {
	return done < 2 || time.Now().Add(m.last).Before(m.deadline)
}

// begin settles the process and starts timing one pass.
func (m *measure) begin() {
	settle()
	m.t0 = time.Now()
}

func (m *measure) end() { m.last = time.Since(m.t0) }

// repeatSetup runs setup n times and returns the last set-up's state;
// earlier states are released with drop. setup calls lap at the end
// of each piece of its work, the same pieces in every set-up; setup_s
// is the sum of the pieces' medians over the n set-ups.
func repeatSetup[T any](e *env, n int, setup func(i int, lap func()) (T, error), drop func(T)) (T, error) {
	var last T
	var times []float64
	var pieces [][]float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
		}
		settle()
		var laps []float64
		t0 := time.Now()
		mark := t0
		lap := func() {
			now := time.Now()
			laps = append(laps, now.Sub(mark).Seconds())
			mark = now
		}
		st, err := setup(i, lap)
		lap()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		last = st
		times = append(times, time.Since(t0).Seconds())
		pieces = append(pieces, laps)
	}
	setupS := sumOfMedians(pieces)
	e.setE2E("setup_s", setupS, "s")
	e.printf("setup_s %.6g s, sum of per-piece medians; set-ups took %s", setupS, fmtList(times))
	return last, nil
}
