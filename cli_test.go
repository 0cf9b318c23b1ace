// Integration tests that build and drive the command-line tools the
// way a user would, over the testdata programs.
package pdt_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdt/internal/durable"
	"pdt/internal/obs"
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// buildTools compiles all cmd/ binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pdt-bin-")
		if err != nil {
			binErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			binErr = err
			binDir = string(out)
			return
		}
		binDir = dir
	})
	if binErr != nil {
		t.Fatalf("building tools: %v (%s)", binErr, binDir)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) (string, string, error) {
	t.Helper()
	bin := filepath.Join(buildTools(t), name)
	cmd := exec.Command(bin, args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()
	pdbPath := filepath.Join(tmp, "stack.pdb")

	// cxxparse: C++ → PDB.
	_, stderr, err := runTool(t, "cxxparse", "-v", "-o", pdbPath,
		"testdata/cxx/stack/TestStackAr.cpp")
	if err != nil {
		t.Fatalf("cxxparse: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "PDB items") {
		t.Errorf("cxxparse -v output: %q", stderr)
	}
	data, err := os.ReadFile(pdbPath)
	if err != nil || !strings.HasPrefix(string(data), "<PDB 1.0>") {
		t.Fatalf("PDB file: %v", err)
	}

	// pdbtree: Figure 5 output.
	out, _, err := runTool(t, "pdbtree", "-calls", pdbPath)
	if err != nil {
		t.Fatalf("pdbtree: %v", err)
	}
	for _, want := range []string{"main()", "`--> Stack<int>::push(const int &)",
		"`--> Stack<int>::isFull()"} {
		if !strings.Contains(out, want) {
			t.Errorf("pdbtree missing %q:\n%s", want, out)
		}
	}

	// pdbconv: readable dump.
	out, _, err = runTool(t, "pdbconv", pdbPath)
	if err != nil {
		t.Fatalf("pdbconv: %v", err)
	}
	if !strings.Contains(out, "Program Database (PDB 1.0)") ||
		!strings.Contains(out, "Stack<int>") {
		t.Errorf("pdbconv output:\n%s", out[:200])
	}

	// pdbhtml: documentation tree.
	htmlDir := filepath.Join(tmp, "docs")
	_, stderr, err = runTool(t, "pdbhtml", "-d", htmlDir, pdbPath)
	if err != nil {
		t.Fatalf("pdbhtml: %v\n%s", err, stderr)
	}
	if _, err := os.Stat(filepath.Join(htmlDir, "index.html")); err != nil {
		t.Errorf("index.html missing: %v", err)
	}

	// pdbmerge: self-merge must keep the structure and parse.
	merged := filepath.Join(tmp, "merged.pdb")
	_, stderr, err = runTool(t, "pdbmerge", "-o", merged, pdbPath, pdbPath)
	if err != nil {
		t.Fatalf("pdbmerge: %v\n%s", err, stderr)
	}
	out, _, err = runTool(t, "pdbtree", "-calls", merged)
	if err != nil {
		t.Fatalf("pdbtree on merged: %v", err)
	}
	if strings.Count(out, "main()\n") != 1 {
		t.Errorf("self-merge duplicated main:\n%s", out)
	}
}

func TestCLIPdblint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()

	// Parse each translation unit of the lint demo, then merge the
	// databases so cross-TU findings (ODR conflicts, dead routines)
	// become visible.
	var pdbs []string
	for _, tu := range []string{"one.cpp", "two.cpp", "main.cpp"} {
		out := filepath.Join(tmp, tu+".pdb")
		_, stderr, err := runTool(t, "cxxparse", "-o", out,
			filepath.Join("testdata/cxx/lintdemo", tu))
		if err != nil {
			t.Fatalf("cxxparse %s: %v\n%s", tu, err, stderr)
		}
		pdbs = append(pdbs, out)
	}
	merged := filepath.Join(tmp, "lintdemo.pdb")
	_, stderr, err := runTool(t, "pdbmerge", append([]string{"-o", merged}, pdbs...)...)
	if err != nil {
		t.Fatalf("pdbmerge: %v\n%s", err, stderr)
	}

	// JSON run: every analysis pass must report at least one finding,
	// and the highest severity (the ODR error) sets exit code 2.
	out, stderr, err := runTool(t, "pdblint", "-format=json", merged)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("pdblint exit = %v, want exit code 2\n%s", err, stderr)
	}
	var report struct {
		SchemaVersion int              `json:"schema_version"`
		Findings      []map[string]any `json:"findings"`
	}
	if jerr := json.Unmarshal([]byte(out), &report); jerr != nil {
		t.Fatalf("pdblint JSON: %v\n%s", jerr, out)
	}
	if report.SchemaVersion != 1 {
		t.Errorf("pdblint schema_version = %d, want 1", report.SchemaVersion)
	}
	seen := map[string]bool{}
	for _, d := range report.Findings {
		seen[d["pass"].(string)] = true
	}
	for _, pass := range []string{"dead-routine", "include-cycle", "unused-include",
		"hierarchy-check", "template-bloat", "odr-duplicate"} {
		if !seen[pass] {
			t.Errorf("no %s finding in:\n%s", pass, out)
		}
	}
	for _, want := range []string{
		"include cycle: a.h -\\u003e b.h -\\u003e a.h",
		"routine 'deadHelper(int)' is defined but unreachable",
		"'a.h' includes 'unused.h' but uses nothing it provides",
		"polymorphic class 'Shape' is used as a base but its destructor is not virtual",
		"non-virtual 'Circle::scale(int, int)' hides inherited virtual 'Shape::scale(double)'",
		"template 'Grid' has 10 instantiations (threshold 8)",
		"routine 'helper(int)' has 2 conflicting signatures",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pdblint missing %q", want)
		}
	}

	// Output must be deterministic across runs.
	out2, _, _ := runTool(t, "pdblint", "-format=json", merged)
	if out != out2 {
		t.Error("pdblint JSON output differs between runs")
	}
	serial, _, _ := runTool(t, "pdblint", "-serial", "-format=json", merged)
	if out != serial {
		t.Error("pdblint serial output differs from parallel")
	}

	// Pass selection restricts findings and lowers the exit code.
	out, _, err = runTool(t, "pdblint", "-passes=include-cycle", merged)
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("pdblint -passes exit = %v, want exit code 1", err)
	}
	if !strings.Contains(out, "include cycle") || strings.Contains(out, "odr") {
		t.Errorf("pass selection output:\n%s", out)
	}
	_, stderr, err = runTool(t, "pdblint", "-passes=no-such-pass", merged)
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Errorf("unknown pass exit = %v, want exit code 3", err)
	}
	if !strings.Contains(stderr, "unknown pass") {
		t.Errorf("unknown pass stderr: %q", stderr)
	}

	// -list names every registered pass and exits cleanly.
	out, _, err = runTool(t, "pdblint", "-list")
	if err != nil {
		t.Fatalf("pdblint -list: %v", err)
	}
	for _, pass := range []string{"pdb-integrity", "dead-routine", "include-cycle",
		"unused-include", "hierarchy-check", "template-bloat", "odr-duplicate"} {
		if !strings.Contains(out, pass) {
			t.Errorf("-list missing %s:\n%s", pass, out)
		}
	}
}

func TestCLITaurun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	out, stderr, err := runTool(t, "taurun", "testdata/cxx/pooma/krylov.cpp")
	if err != nil {
		t.Fatalf("taurun: %v\n%s", err, stderr)
	}
	for _, want := range []string{"iterations 16", "converged 1",
		"%Time", "conjugateGradient()", "axpy()"} {
		if !strings.Contains(out, want) {
			t.Errorf("taurun missing %q", want)
		}
	}
}

func TestCLITauinstr(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	dir := t.TempDir()
	out, stderr, err := runTool(t, "tauinstr", "-d", dir,
		"testdata/cxx/pooma/krylov.cpp")
	if err != nil {
		t.Fatalf("tauinstr: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "instrumented") {
		t.Errorf("tauinstr output: %q", out)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) == 0 {
		t.Fatal("no instrumented files written")
	}
	found := false
	for _, e := range entries {
		b, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		if strings.Contains(string(b), "TAU_PROFILE(") {
			found = true
		}
	}
	if !found {
		t.Error("no TAU_PROFILE macros in instrumented output")
	}
}

func TestCLISiloonAndSlang(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()
	lib := filepath.Join(tmp, "lib.cpp")
	os.WriteFile(lib, []byte(`
class Adder {
public:
    Adder() : total(0) { }
    void add(int x) { total += x; }
    int sum() const { return total; }
private:
    int total;
};
int main() { return 0; }
`), 0o644)

	// siloongen -list shows the binding table.
	out, stderr, err := runTool(t, "siloongen", "-list", lib)
	if err != nil {
		t.Fatalf("siloongen: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "new__Adder") || !strings.Contains(out, "Adder__add") {
		t.Errorf("siloongen -list:\n%s", out)
	}

	// siloongen writes the generated files.
	genDir := filepath.Join(tmp, "gen")
	_, stderr, err = runTool(t, "siloongen", "-d", genDir, lib)
	if err != nil {
		t.Fatalf("siloongen: %v\n%s", err, stderr)
	}
	for _, f := range []string{"bindings.slang", "glue.cpp"} {
		if _, err := os.Stat(filepath.Join(genDir, f)); err != nil {
			t.Errorf("%s missing: %v", f, err)
		}
	}

	// slang drives the library.
	scriptPath := filepath.Join(tmp, "drv.slang")
	os.WriteFile(scriptPath, []byte(`
a = Adder_new();
a.add(40);
a.add(2);
print(a.sum());
Adder_delete(a);
`), 0o644)
	out, stderr, err = runTool(t, "slang", "-lib", lib, scriptPath)
	if err != nil {
		t.Fatalf("slang: %v\n%s", err, stderr)
	}
	if strings.TrimSpace(out) != "42" {
		t.Errorf("slang output = %q, want 42", out)
	}

	// slang without a library runs plain scripts.
	plainScript := filepath.Join(tmp, "plain.slang")
	os.WriteFile(plainScript, []byte(`print(6 * 7);`), 0o644)
	out, _, err = runTool(t, "slang", plainScript)
	if err != nil || strings.TrimSpace(out) != "42" {
		t.Errorf("plain slang: %v %q", err, out)
	}
}

// metricsSnapshot decodes the JSON snapshot a tool wrote to standard
// error under -metrics -.
func metricsSnapshot(t *testing.T, tool, stderr string) obs.Snapshot {
	t.Helper()
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(stderr), &snap); err != nil {
		t.Fatalf("%s metrics JSON: %v\n%s", tool, err, stderr)
	}
	if snap.Tool != tool {
		t.Errorf("snapshot tool = %q, want %q", snap.Tool, tool)
	}
	return snap
}

// wantSpans fails unless every named stage span appears in the
// snapshot's span tree.
func wantSpans(t *testing.T, tool string, snap obs.Snapshot, names ...string) {
	t.Helper()
	for _, name := range names {
		if snap.Find(name) == nil {
			t.Errorf("%s: no %q span in snapshot", tool, name)
		}
	}
}

// TestCLIMetrics drives every PDB tool with and without -metrics -:
// the flag must add a parseable JSON snapshot on stderr with the
// expected stage spans, and must leave the tool's real output
// byte-identical.
func TestCLIMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()

	// Build the lint demo's per-TU databases; they feed every tool.
	var pdbs []string
	for _, tu := range []string{"one.cpp", "two.cpp", "main.cpp"} {
		out := filepath.Join(tmp, tu+".pdb")
		_, stderr, err := runTool(t, "cxxparse", "-o", out,
			filepath.Join("testdata/cxx/lintdemo", tu))
		if err != nil {
			t.Fatalf("cxxparse %s: %v\n%s", tu, err, stderr)
		}
		pdbs = append(pdbs, out)
	}

	// pdbmerge -j 8 -metrics -: the acceptance scenario. Split, parse,
	// and merge stage spans with item counts, plus worker utilization.
	plainOut := filepath.Join(tmp, "plain.pdb")
	if _, stderr, err := runTool(t, "pdbmerge",
		append([]string{"-j", "8", "-o", plainOut}, pdbs...)...); err != nil {
		t.Fatalf("pdbmerge: %v\n%s", err, stderr)
	}
	metricsOut := filepath.Join(tmp, "metrics.pdb")
	_, stderr, err := runTool(t, "pdbmerge",
		append([]string{"-j", "8", "-metrics", "-", "-o", metricsOut}, pdbs...)...)
	if err != nil {
		t.Fatalf("pdbmerge -metrics: %v\n%s", err, stderr)
	}
	snap := metricsSnapshot(t, "pdbmerge", stderr)
	wantSpans(t, "pdbmerge", snap, "load", "read", "split", "parse", "merge", "write")
	if sp := snap.Find("load"); sp.Items != 3 {
		t.Errorf("load span items = %d, want 3 files", sp.Items)
	}
	if sp := snap.Find("split"); sp.Items <= 0 || sp.Bytes <= 0 {
		t.Errorf("split span = %d items / %d bytes, want both > 0", sp.Items, sp.Bytes)
	}
	if sp := snap.Find("merge"); sp.Items != 3 {
		t.Errorf("merge span items = %d, want 3 databases", sp.Items)
	}
	poolNames := map[string]bool{}
	for _, p := range snap.Pools {
		poolNames[p.Name] = true
		var busy int64
		for _, b := range p.BusyNS {
			busy += b
		}
		if p.Workers <= 0 || busy <= 0 || p.Utilization <= 0 {
			t.Errorf("pool %s: workers=%d busy=%d utilization=%f, want all > 0",
				p.Name, p.Workers, busy, p.Utilization)
		}
	}
	if !poolNames["load"] {
		t.Errorf("no \"load\" worker pool in %v", poolNames)
	}
	// Instrumentation must not change the merged result.
	plain, err1 := os.ReadFile(plainOut)
	instr, err2 := os.ReadFile(metricsOut)
	if err1 != nil || err2 != nil {
		t.Fatalf("reading merged outputs: %v / %v", err1, err2)
	}
	if string(plain) != string(instr) {
		t.Error("pdbmerge output differs with -metrics enabled")
	}
	merged := plainOut

	// The read-only viewers: same stdout with and without the flag,
	// and the read pipeline stages present in the snapshot.
	viewers := []struct {
		tool  string
		args  []string
		spans []string
	}{
		{"pdbconv", []string{"-j", "2"}, []string{"read", "split", "parse", "reassemble", "convert"}},
		{"pdbtree", []string{"-calls"}, []string{"read", "split", "parse", "print"}},
	}
	for _, v := range viewers {
		out1, _, err := runTool(t, v.tool, append(v.args, merged)...)
		if err != nil {
			t.Fatalf("%s: %v", v.tool, err)
		}
		out2, stderr, err := runTool(t, v.tool,
			append(append([]string{"-metrics", "-"}, v.args...), merged)...)
		if err != nil {
			t.Fatalf("%s -metrics: %v\n%s", v.tool, err, stderr)
		}
		if out1 != out2 {
			t.Errorf("%s stdout differs with -metrics enabled", v.tool)
		}
		wantSpans(t, v.tool, metricsSnapshot(t, v.tool, stderr), v.spans...)
	}

	// pdbhtml writes to a directory; stdout is just the summary line.
	htmlDir := filepath.Join(tmp, "docs")
	out1, _, err := runTool(t, "pdbhtml", "-d", htmlDir, merged)
	if err != nil {
		t.Fatalf("pdbhtml: %v", err)
	}
	out2, stderr, err := runTool(t, "pdbhtml", "-d", htmlDir, "-metrics", "-", merged)
	if err != nil {
		t.Fatalf("pdbhtml -metrics: %v\n%s", err, stderr)
	}
	if out1 != out2 {
		t.Error("pdbhtml stdout differs with -metrics enabled")
	}
	wantSpans(t, "pdbhtml", metricsSnapshot(t, "pdbhtml", stderr), "read", "split", "parse", "generate")

	// pdblint: analysis span with one child per pass and a findings
	// counter; diagnostics (and the exit code) unchanged.
	wantExit := func(err error, stderr string) {
		t.Helper()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("pdblint exit = %v, want exit code 2\n%s", err, stderr)
		}
	}
	out1, _, err = runTool(t, "pdblint", "-format=json", merged)
	wantExit(err, "")
	out2, stderr, err = runTool(t, "pdblint", "-format=json", "-metrics", "-", merged)
	wantExit(err, stderr)
	if out1 != out2 {
		t.Error("pdblint stdout differs with -metrics enabled")
	}
	snap = metricsSnapshot(t, "pdblint", stderr)
	wantSpans(t, "pdblint", snap, "read", "split", "parse", "analysis", "dead-routine", "odr-duplicate")
	if sp := snap.Find("analysis"); len(sp.Children) == 0 {
		t.Error("analysis span has no per-pass children")
	}
	if snap.Counters["analysis.findings"] <= 0 {
		t.Errorf("analysis.findings = %d, want > 0", snap.Counters["analysis.findings"])
	}

	// taurun exports the TAU profile through the same snapshot format.
	out1, _, err = runTool(t, "taurun", "testdata/cxx/pooma/krylov.cpp")
	if err != nil {
		t.Fatalf("taurun: %v", err)
	}
	out2, stderr, err = runTool(t, "taurun", "-metrics", "-", "testdata/cxx/pooma/krylov.cpp")
	if err != nil {
		t.Fatalf("taurun -metrics: %v\n%s", err, stderr)
	}
	if out1 != out2 {
		t.Error("taurun stdout differs with -metrics enabled")
	}
	snap = metricsSnapshot(t, "taurun", stderr)
	if sp := snap.Find("tau"); sp == nil || len(sp.Children) == 0 {
		t.Fatalf("taurun snapshot lacks a tau span with per-timer children:\n%s", stderr)
	}
	if snap.Counters["tau.calls"] <= 0 {
		t.Errorf("tau.calls = %d, want > 0", snap.Counters["tau.calls"])
	}

	// -metrics <file> writes the same snapshot to a file, and -trace
	// renders the human-readable span tree on stderr.
	mfile := filepath.Join(tmp, "metrics.json")
	if _, stderr, err := runTool(t, "pdbconv", "-metrics", mfile, merged); err != nil {
		t.Fatalf("pdbconv -metrics file: %v\n%s", err, stderr)
	}
	data, err := os.ReadFile(mfile)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	wantSpans(t, "pdbconv", metricsSnapshot(t, "pdbconv", string(data)), "read", "convert")
	_, stderr, err = runTool(t, "pdbconv", "-trace", merged)
	if err != nil {
		t.Fatalf("pdbconv -trace: %v", err)
	}
	for _, want := range []string{"read", "convert"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-trace output lacks %q:\n%s", want, stderr)
		}
	}
}

func TestCLIErrorReporting(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()
	bad := filepath.Join(tmp, "bad.cpp")
	os.WriteFile(bad, []byte("Unknown broken ;;; int main( { return"), 0o644)
	_, stderr, err := runTool(t, "cxxparse", bad)
	if err == nil {
		t.Error("cxxparse should fail on broken input")
	}
	if stderr == "" {
		t.Error("no diagnostics printed")
	}
	// Missing file.
	_, _, err = runTool(t, "cxxparse", filepath.Join(tmp, "nope.cpp"))
	if err == nil {
		t.Error("cxxparse should fail on missing file")
	}
	// pdbtree on garbage.
	garbage := filepath.Join(tmp, "garbage.pdb")
	os.WriteFile(garbage, []byte("not a pdb"), 0o644)
	_, _, err = runTool(t, "pdbtree", garbage)
	if err == nil {
		t.Error("pdbtree should fail on a non-PDB file")
	}
}

// TestCLIResilientIngestion is the acceptance scenario of the
// resilient-ingestion work: merge a corpus in which roughly one item
// block in ten is corrupted. Lenient mode must complete, report
// recovered/dropped counts through -metrics, and exit with the
// dedicated "completed with recoveries" code; strict mode must refuse
// the damaged input.
func TestCLIResilientIngestion(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()

	golden, err := os.ReadFile("testdata/golden/lintdemo.pdb")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every tenth item block: breaking the "#" in the head
	// makes the whole block unidentifiable, the worst damage short of
	// losing bytes. Block 1 — the first item after the header — is
	// among them, which is also the one damage shape strict mode
	// detects ("attribute outside any item"); a broken head later in
	// the stream reads as an ignorable unknown attribute to the
	// historic strict parser.
	blocks := strings.Split(string(golden), "\n\n")
	var damagedBlocks int
	for i := range blocks {
		if i%10 != 1 || !strings.Contains(blocks[i], "#") {
			continue
		}
		blocks[i] = strings.Replace(blocks[i], "#", "%", 1)
		damagedBlocks++
	}
	if damagedBlocks == 0 {
		t.Fatal("corpus too small to damage")
	}
	corrupted := filepath.Join(tmp, "corrupted.pdb")
	clean := filepath.Join(tmp, "clean.pdb")
	if err := os.WriteFile(corrupted, []byte(strings.Join(blocks, "\n\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(clean, golden, 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict merge refuses the damaged input with the I/O failure code.
	_, _, err = runTool(t, "pdbmerge", "-o", filepath.Join(tmp, "strict.pdb"), corrupted, clean)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("strict pdbmerge on damaged input: err = %v, want exit 3", err)
	}

	// Lenient merge completes, counts the recoveries, and exits 4.
	merged := filepath.Join(tmp, "merged.pdb")
	qdir := filepath.Join(tmp, "quarantine")
	_, stderr, err := runTool(t, "pdbmerge", "-lenient", "-quarantine", qdir,
		"-metrics", "-", "-o", merged, corrupted, clean)
	if !errors.As(err, &ee) || ee.ExitCode() != 4 {
		t.Fatalf("lenient pdbmerge: err = %v, want exit 4 (completed with recoveries)\n%s", err, stderr)
	}
	snap := metricsSnapshot(t, "pdbmerge", stderr)
	if n := snap.Counters["load.recovered"]; n < int64(damagedBlocks) {
		t.Errorf("load.recovered = %d, want >= %d damaged blocks", n, damagedBlocks)
	}
	if snap.Counters["load.dropped_lines"] <= 0 {
		t.Error("load.dropped_lines not reported")
	}
	quarantined, err := filepath.Glob(filepath.Join(qdir, "corrupted.pdb.*.skipped"))
	if err != nil || len(quarantined) == 0 {
		t.Errorf("no quarantine files written: %v (%v)", quarantined, err)
	}

	// The merged output is a valid PDB a strict tool accepts.
	if out, stderr, err := runTool(t, "pdbconv", "-o", os.DevNull, merged); err != nil {
		t.Fatalf("pdbconv on lenient merge output: %v\n%s%s", err, out, stderr)
	}

	// A viewer in lenient mode reads the damaged file directly and
	// reports the recovery through its exit code too.
	if _, _, err := runTool(t, "pdbconv", "-lenient", "-o", os.DevNull, corrupted); !errors.As(err, &ee) || ee.ExitCode() != 4 {
		t.Fatalf("pdbconv -lenient: err = %v, want exit 4", err)
	}

	// On clean inputs lenient merging stays exit 0 and byte-identical
	// to strict merging.
	strictOut := filepath.Join(tmp, "strict-clean.pdb")
	lenientOut := filepath.Join(tmp, "lenient-clean.pdb")
	if _, stderr, err := runTool(t, "pdbmerge", "-o", strictOut, clean); err != nil {
		t.Fatalf("strict merge of clean input: %v\n%s", err, stderr)
	}
	if _, stderr, err := runTool(t, "pdbmerge", "-lenient", "-o", lenientOut, clean); err != nil {
		t.Fatalf("lenient merge of clean input: %v (want exit 0)\n%s", err, stderr)
	}
	a, _ := os.ReadFile(strictOut)
	b, _ := os.ReadFile(lenientOut)
	if string(a) != string(b) {
		t.Error("lenient merge of clean input differs from strict")
	}

	// pdblint surfaces the recovered spans as pdb-recovery warnings;
	// the findings exit code (1) wins over the recovery code.
	out, _, err := runTool(t, "pdblint", "-lenient", "-passes", "pdb-recovery", corrupted)
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("pdblint -lenient: err = %v, want exit 1 (warnings)\n%s", err, out)
	}
	if !strings.Contains(out, "pdb-recovery") {
		t.Errorf("pdblint output lacks pdb-recovery findings:\n%s", out)
	}
}

// TestCLICrashConsistentMerge drives the crash-consistency surface of
// pdbmerge end to end: the durable write visible in -metrics, output
// identical to the stdout merge, and the output lock with its distinct
// exit code.
func TestCLICrashConsistentMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	tmp := t.TempDir()

	var inputs []string
	for i := 0; i < 4; i++ {
		p := filepath.Join(tmp, fmt.Sprintf("in%d.pdb", i))
		text := fmt.Sprintf("<PDB 1.0>\n\nso#1 common.h\n\nso#2 unit%d.cpp\nsinc 1\n\nro#3 f%d\nrloc so#2 1 1\nracs NA\nrkind fun\nrlink C++\n", i, i)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, p)
	}

	// -o goes through the durable path; its cost is its own span.
	out1 := filepath.Join(tmp, "out1.pdb")
	_, stderr, err := runTool(t, "pdbmerge",
		append([]string{"-metrics", "-", "-o", out1}, inputs...)...)
	if err != nil {
		t.Fatalf("pdbmerge -o: %v\n%s", err, stderr)
	}
	snap := metricsSnapshot(t, "pdbmerge", stderr)
	wantSpans(t, "pdbmerge", snap, "write", "durable")
	stdout, stderr, err := runTool(t, "pdbmerge", inputs...)
	if err != nil {
		t.Fatalf("pdbmerge to stdout: %v\n%s", err, stderr)
	}
	a, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != stdout {
		t.Error("durable -o output differs from the stdout merge")
	}

	// While another process holds the output lock, a second pdbmerge
	// must fail fast with the dedicated exit code, touching nothing.
	var ee *exec.ExitError
	out3 := filepath.Join(tmp, "out3.pdb")
	lock, err := durable.AcquireLock(out3 + ".lock")
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	_, stderr, err = runTool(t, "pdbmerge", append([]string{"-o", out3}, inputs...)...)
	if !errors.As(err, &ee) || ee.ExitCode() != 5 {
		t.Fatalf("pdbmerge under held lock: err = %v, want exit 5\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "lock") {
		t.Errorf("lock refusal stderr does not mention the lock: %q", stderr)
	}
	if _, err := os.Lstat(out3); !os.IsNotExist(err) {
		t.Error("locked-out run still produced output")
	}
}
