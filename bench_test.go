// Benchmarks regenerating the quantitative results of EXPERIMENTS.md.
// One benchmark (family) per experiment:
//
//	B1  BenchmarkParse*                   — frontend throughput
//	B2  BenchmarkInstantiationMode*       — used vs eager instantiation (ablation D1)
//	B3  BenchmarkPDBWrite/Read            — database serialization
//	B4  BenchmarkMerge*                   — pdbmerge dedup scaling
//	B5  BenchmarkCallGraph*               — call-graph traversal (Figure 5 algorithm)
//	B6  BenchmarkInstrumentation*         — TAU instrumentation overhead (Figure 7)
//	B7  BenchmarkBridgeCall*              — SILOON bridge call overhead (Figure 8)
//	D2  BenchmarkTemplateOrigin*          — location match vs direct template IDs
package pdt_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"pdt/internal/analysis"
	"pdt/internal/core"
	"pdt/internal/cpp/sema"
	"pdt/internal/ductape"
	"pdt/internal/ilanalyzer"
	"pdt/internal/interp"
	"pdt/internal/pdb"
	"pdt/internal/script"
	"pdt/internal/siloon"
	"pdt/internal/tau"
	"pdt/internal/tools/tree"
	"pdt/internal/workload"
)

// compile is the benchmark frontend helper.
func compile(b *testing.B, files map[string]string, mainFile string, mode sema.InstantiationMode) *core.Result {
	b.Helper()
	opts := core.Options{Mode: mode}
	fs := core.NewFileSet(opts)
	for name, content := range files {
		fs.AddVirtualFile(name, content)
	}
	res := core.CompileSource(fs, mainFile, files[mainFile], opts)
	if res.HasErrors() {
		b.Fatalf("compile: %v", res.Diagnostics[0])
	}
	return res
}

// --- B1: frontend throughput -------------------------------------------------

func benchmarkParse(b *testing.B, classes int) {
	src := workload.GenClasses(classes, 4)
	lines := strings.Count(src, "\n")
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile(b, map[string]string{"gen.cpp": src}, "gen.cpp", sema.Used)
	}
	b.ReportMetric(float64(lines), "loc")
}

func BenchmarkParse10Classes(b *testing.B)  { benchmarkParse(b, 10) }
func BenchmarkParse50Classes(b *testing.B)  { benchmarkParse(b, 50) }
func BenchmarkParse200Classes(b *testing.B) { benchmarkParse(b, 200) }

func BenchmarkParseStackFigure1(b *testing.B) {
	files := workload.StackFiles()
	for i := 0; i < b.N; i++ {
		compile(b, files, "TestStackAr.cpp", sema.Used)
	}
}

func BenchmarkParseKrylov(b *testing.B) {
	files := workload.KrylovFiles()
	for i := 0; i < b.N; i++ {
		compile(b, files, "krylov.cpp", sema.Used)
	}
}

// --- B2/D1: used vs eager instantiation --------------------------------------

func benchmarkInstantiation(b *testing.B, mode sema.InstantiationMode, members, insts, used int) {
	src := workload.GenTemplateFanout(members, insts, used)
	files := map[string]string{"gen.cpp": src}
	var bodies, items, rcalls int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := compile(b, files, "gen.cpp", mode)
		bodies = res.Stats.BodiesAnalyzed
		db := ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{})
		items = db.ItemCount()
		rcalls = 0
		for _, r := range db.Routines {
			rcalls += len(r.Calls)
		}
	}
	b.ReportMetric(float64(bodies), "bodies")
	b.ReportMetric(float64(items), "pdb-items")
	b.ReportMetric(float64(rcalls), "rcalls")
}

// The paper's §2: used mode "minimizes compilation time and the size
// of the IL". 32-member template, 16 instantiations, 4 members used.
func BenchmarkInstantiationModeUsed(b *testing.B) {
	benchmarkInstantiation(b, sema.Used, 32, 16, 4)
}

func BenchmarkInstantiationModeEager(b *testing.B) {
	benchmarkInstantiation(b, sema.Eager, 32, 16, 4)
}

// --- B3: PDB serialization -----------------------------------------------------

func buildBigPDB(b *testing.B) *pdb.PDB {
	b.Helper()
	src := workload.GenClasses(100, 6)
	res := compile(b, map[string]string{"gen.cpp": src}, "gen.cpp", sema.Used)
	return ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{})
}

func BenchmarkPDBWrite(b *testing.B) {
	db := buildBigPDB(b)
	b.ReportMetric(float64(db.ItemCount()), "items")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDBRead(b *testing.B) {
	db := buildBigPDB(b)
	text := db.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdb.Read(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B4: pdbmerge dedup scaling -------------------------------------------------

func benchmarkMerge(b *testing.B, units int) {
	hdr, sources := workload.GenSharedHeaderUnits(units, 8, 2)
	dbs := make([]*ductape.PDB, 0, units)
	totalIn := 0
	for _, src := range sources {
		opts := core.Options{}
		fs := core.NewFileSet(opts)
		fs.AddVirtualFile("shared.h", hdr)
		res := core.CompileSource(fs, "unit.cpp", src, opts)
		if res.HasErrors() {
			b.Fatalf("compile: %v", res.Diagnostics[0])
		}
		raw := ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{})
		totalIn += raw.ItemCount()
		dbs = append(dbs, ductape.FromRaw(raw))
	}
	var out int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := ductape.Merge(dbs...)
		out = merged.Raw().ItemCount()
	}
	b.ReportMetric(float64(totalIn), "items-in")
	b.ReportMetric(float64(out), "items-out")
	b.ReportMetric(float64(totalIn)/float64(out), "dedup-ratio")
}

func BenchmarkMerge2Units(b *testing.B)  { benchmarkMerge(b, 2) }
func BenchmarkMerge8Units(b *testing.B)  { benchmarkMerge(b, 8) }
func BenchmarkMerge32Units(b *testing.B) { benchmarkMerge(b, 32) }

// --- B8: pdblint pass driver, serial vs parallel ----------------------------------

// buildLintDB merges several workloads into one database large enough
// that the per-pass work dominates the driver's coordination cost.
func buildLintDB(b *testing.B) *ductape.PDB {
	b.Helper()
	hdr, sources := workload.GenSharedHeaderUnits(24, 8, 4)
	dbs := make([]*ductape.PDB, 0, len(sources)+3)
	for _, src := range sources {
		opts := core.Options{}
		fs := core.NewFileSet(opts)
		fs.AddVirtualFile("shared.h", hdr)
		res := core.CompileSource(fs, "unit.cpp", src, opts)
		if res.HasErrors() {
			b.Fatalf("compile: %v", res.Diagnostics[0])
		}
		dbs = append(dbs, ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{})))
	}
	for _, w := range []struct {
		files map[string]string
		main  string
	}{
		{workload.KrylovFiles(), "krylov.cpp"},
		{workload.StackFiles(), "TestStackAr.cpp"},
		{map[string]string{"gen.cpp": workload.GenClasses(120, 6)}, "gen.cpp"},
	} {
		res := compile(b, w.files, w.main, sema.Used)
		dbs = append(dbs, ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{})))
	}
	return ductape.Merge(dbs...)
}

func benchmarkPdblint(b *testing.B, workers int) {
	db := buildLintDB(b)
	passes := analysis.All()
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(analysis.Run(db, passes, analysis.Options{Workers: workers}))
	}
	b.ReportMetric(float64(n), "findings")
}

func BenchmarkPdblintSerial(b *testing.B)   { benchmarkPdblint(b, 1) }
func BenchmarkPdblintParallel(b *testing.B) { benchmarkPdblint(b, 0) }

// --- B5: call-graph traversal -----------------------------------------------------

func benchmarkCallGraph(b *testing.B, depth, fanout int) {
	src := workload.GenCallChain(depth, fanout)
	res := compile(b, map[string]string{"gen.cpp": src}, "gen.cpp", sema.Used)
	db := ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.PrintCallGraph(io.Discard, db)
	}
}

func BenchmarkCallGraphDeep(b *testing.B) { benchmarkCallGraph(b, 12, 2) }
func BenchmarkCallGraphWide(b *testing.B) { benchmarkCallGraph(b, 4, 6) }

// --- B6: TAU instrumentation overhead (Figure 7) ----------------------------------

// BenchmarkKrylovUninstrumented measures the solver alone; the paired
// benchmark measures it with TAU timers active. The steps metric shows
// the deterministic virtual-time overhead of instrumentation.
func BenchmarkKrylovUninstrumented(b *testing.B) {
	files := workload.KrylovFiles()
	res := compile(b, files, "krylov.cpp", sema.Used)
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(res.Unit, interp.Options{})
		if _, err := in.Run(); err != nil {
			b.Fatal(err)
		}
		steps = in.Clock()
	}
	b.ReportMetric(float64(steps), "vsteps")
}

func BenchmarkKrylovInstrumented(b *testing.B) {
	files := workload.KrylovFiles()
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tau.ProfileSource(files, "krylov.cpp", tau.VirtualClock)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.StopTimer()
	res, err := tau.ProfileSource(files, "krylov.cpp", tau.VirtualClock)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range res.Runtime.Profiles() {
		steps += p.Exclusive
	}
	b.ReportMetric(float64(steps), "vsteps")
}

// BenchmarkInstrumentOnly isolates the source-rewriting cost.
func BenchmarkInstrumentOnly(b *testing.B) {
	files := workload.KrylovFiles()
	opts := core.Options{}
	fs := core.NewFileSet(opts)
	for name, content := range files {
		fs.AddVirtualFile(name, content)
	}
	res := core.CompileSource(fs, "krylov.cpp", files["krylov.cpp"], opts)
	if res.HasErrors() {
		b.Fatal(res.Diagnostics[0])
	}
	db := ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tau.Instrument(fs, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B7: SILOON bridge call overhead (Figure 8) -------------------------------------

const benchLib = `
class Counter {
public:
    Counter() : n(0) { }
    void bump() { n++; }
    int value() const { return n; }
private:
    int n;
};
int main() { return 0; }
`

func BenchmarkBridgeCall(b *testing.B) {
	res := compile(b, map[string]string{"lib.cpp": benchLib}, "lib.cpp", sema.Used)
	db := ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
	bindings := siloon.Generate(db, siloon.Options{})
	br, sc, err := siloon.NewBridge(res.Unit, bindings, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := sc.Run(bindings.WrapperScript); err != nil {
		b.Fatal(err)
	}
	if err := sc.Run(`c = Counter_new();`); err != nil {
		b.Fatal(err)
	}
	_ = br
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Run(`Counter_bump(c);`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectCall is the baseline: the same method invoked
// directly on the C++ interpreter (no script, no bridge).
func BenchmarkDirectCall(b *testing.B) {
	res := compile(b, map[string]string{"lib.cpp": benchLib}, "lib.cpp", sema.Used)
	in := interp.New(res.Unit, interp.Options{})
	if err := in.InitGlobals(); err != nil {
		b.Fatal(err)
	}
	cls := res.Unit.LookupClass("Counter")
	obj, err := in.Construct(cls, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CallMethod(obj, "bump", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScriptOnlyCall is the slang-side baseline: a no-op slang
// function call, isolating script interpretation cost.
func BenchmarkScriptOnlyCall(b *testing.B) {
	sc := script.NewInterp(nil)
	if err := sc.Run(`def noop() { return 0; }`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Run(`noop();`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- D2: template-origin matching: location match vs direct IDs ----------------------

// The workload declares many distinct templates, each instantiated:
// location matching looks up each instantiation in the pre-built
// template list (the paper's §3.1 structure), indexed by file, and
// direct IDs follow a pointer. 4000 is the compile workload's largest
// GenManyTemplates size.
func benchmarkTemplateOrigin(b *testing.B, mode ilanalyzer.OriginMode, k int) {
	src := workload.GenManyTemplates(k)
	res := compile(b, map[string]string{"gen.cpp": src}, "gen.cpp", sema.Used)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{TemplateOrigin: mode})
	}
}

func BenchmarkTemplateOriginScan64(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginScan, 64)
}

func BenchmarkTemplateOriginDirect64(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginDirect, 64)
}

func BenchmarkTemplateOriginScan256(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginScan, 256)
}

func BenchmarkTemplateOriginDirect256(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginDirect, 256)
}

func BenchmarkTemplateOriginScan4000(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginScan, 4000)
}

func BenchmarkTemplateOriginDirect4000(b *testing.B) {
	benchmarkTemplateOrigin(b, ilanalyzer.OriginDirect, 4000)
}

// --- E8 shape check as a benchmark-time assertion -------------------------------------

// BenchmarkKrylovProfileShape regenerates Figure 7 and asserts its
// qualitative shape: kernel routines dominate, the solver driver is
// mostly inclusive time.
func BenchmarkKrylovProfileShape(b *testing.B) {
	var res *tau.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = tau.ProfileSource(workload.KrylovFiles(), "krylov.cpp", tau.VirtualClock)
		if err != nil {
			b.Fatal(err)
		}
	}
	profiles := res.Runtime.Profiles()
	if len(profiles) == 0 {
		b.Fatal("no profiles")
	}
	top := profiles[0].Name
	if !strings.Contains(top, "axpy") && !strings.Contains(top, "dot") &&
		!strings.Contains(top, "applyLaplacian") && !strings.Contains(top, "get") {
		b.Fatalf("top routine %q is not a kernel (shape mismatch)", top)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "top=%s", top)
	b.Log(sb.String())
}
