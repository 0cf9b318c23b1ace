package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pdt/internal/core"
	"pdt/internal/cpp/ast"
	"pdt/internal/cpp/lex"
	"pdt/internal/cpp/parse"
	"pdt/internal/cpp/pp"
	"pdt/internal/cpp/sema"
	"pdt/internal/il"
	"pdt/internal/ilanalyzer"
	"pdt/internal/pdb"
	"pdt/internal/source"
	"pdt/internal/workload"
)

// shape is the item census a generator's parameters imply for the
// PDB of one translation unit, derived from the generated C++ (not
// from the compiler): classes and how many are instantiations,
// routines and how many are instantiations, and templates.
type shape struct {
	classes, classInsts, routines, routineInsts, templates int
}

// tu is one translation unit of the compile workload.
type tu struct {
	family   string
	rung     int // position on the family's size ladder (0..2), -1 for fixed programs
	files    map[string]string
	main     string
	srcBytes int
	expect   *shape // nil for the fixed programs
	refASCII []byte // the facade (core.Compile) output made during set-up
}

// ladder is one generator family at three sizes, each a factor of 4
// apart so the per-layer scaling exponents are well conditioned.
type ladder struct {
	family string
	sizes  [3]int
	gen    func(n int) (map[string]string, string, shape)
}

func single(src string) (map[string]string, string) {
	return map[string]string{"tu.cpp": src}, "tu.cpp"
}

// ladders are the compile workload's families. GenManyTemplates runs
// larger than the rest because the IL analyzer's template-origin scan
// only dominates its cost from about a thousand templates up.
var ladders = []ladder{
	{"classes", [3]int{50, 200, 800}, func(n int) (map[string]string, string, shape) {
		// n classes, each with a constructor and 8 methods, plus main.
		f, m := single(workload.GenClasses(n, 8))
		return f, m, shape{classes: n, routines: 9*n + 1}
	}},
	{"many_templates", [3]int{1000, 2000, 4000}, func(k int) (map[string]string, string, shape) {
		// k class templates with one member each, each instantiated
		// once and its member used: k class and k member
		// instantiations, plus main; k class + k member templates.
		f, m := single(workload.GenManyTemplates(k))
		return f, m, shape{classes: k, classInsts: k, routines: k + 1, routineInsts: k, templates: 2 * k}
	}},
	{"template_fanout", [3]int{16, 64, 256}, func(k int) (map[string]string, string, shape) {
		// k typedef aliases of int name one instantiation Fan<int>,
		// which declares all 32 members; plus main.
		f, m := single(workload.GenTemplateFanout(32, k, 8))
		return f, m, shape{classes: 1, classInsts: 1, routines: 33, routineInsts: 32, templates: 33}
	}},
	{"distinct_insts", [3]int{100, 400, 1600}, func(k int) (map[string]string, string, shape) {
		// k distinct Slot<int, N> instantiations, each using
		// capacity(); one class and one member template.
		f, m := single(workload.GenDistinctInstantiations(k))
		return f, m, shape{classes: k, classInsts: k, routines: k + 1, routineInsts: k, templates: 2}
	}},
	{"layered_lib", [3]int{4, 16, 64}, func(d int) (map[string]string, string, shape) {
		// d layers of 4 classes with 8 virtual methods each; layer 0
		// adds a virtual destructor per class; plus main.
		f, m := workload.GenLayeredLib(d, 4, 8)
		return f, m, shape{classes: 4 * d, routines: 32*d + 4 + 1}
	}},
}

// compileSet builds the workload's translation units: every ladder at
// its three sizes, each size raised by a seeded 0-1% so the census
// checks see varying parameters, plus the Krylov and Stack programs,
// in a seeded order.
func compileSet(rng *rand.Rand) []*tu {
	var set []*tu
	for _, l := range ladders {
		for r, n := range l.sizes {
			n += rng.Intn(n/100 + 1)
			files, main, sh := l.gen(n)
			set = append(set, &tu{family: l.family, rung: r, files: files, main: main, expect: &sh})
		}
	}
	set = append(set,
		&tu{family: "krylov", rung: -1, files: workload.KrylovFiles(), main: "krylov.cpp"},
		&tu{family: "stack", rung: -1, files: workload.StackFiles(), main: "TestStackAr.cpp"})
	for _, t := range set {
		for _, c := range t.files {
			t.srcBytes += len(c)
		}
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// fileSet registers a TU's files, in name order, in a fresh file set
// with the built-in headers.
func fileSet(files map[string]string) *source.FileSet {
	fs := core.NewFileSet(core.Options{})
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fs.AddVirtualFile(n, files[n])
	}
	return fs
}

// compiled is one TU's frontend output.
type compiled struct {
	db     *pdb.PDB
	ascii  []byte
	bin    []byte
	tokens int
	decls  int
	stats  sema.Stats
	diags  []string
}

// compileStaged runs one TU through the frontend stage by stage —
// exactly the calls core.Compile makes — then the IL analyzer and both
// PDB writers, with a span around each call.
func compileStaged(tr *tracer, parent int, t *tu) *compiled {
	fs := fileSet(t.files)
	f := fs.Lookup(t.main)
	out := &compiled{}

	var pre *pp.Preprocessor
	var toks []lex.Token
	tr.call("pp", parent, func() {
		pre = pp.New(fs)
		toks = pre.Process(f)
	})
	for _, e := range pre.Errors() {
		out.diags = append(out.diags, e.Error())
	}
	var tree *ast.TranslationUnit
	tr.call("parse", parent, func() {
		var perrs []*parse.Error
		tree, perrs = parse.ParseFile(f, toks)
		for _, e := range perrs {
			out.diags = append(out.diags, e.Error())
		}
	})
	var unit *il.Unit
	tr.call("sema", parent, func() {
		an := sema.New(f, sema.DefaultOptions())
		unit = an.Analyze(tree)
		unit.Macros = pre.Records
		for _, e := range an.Errors() {
			out.diags = append(out.diags, e.Error())
		}
		out.stats = an.Stats()
	})
	tr.call("ilanalyzer", parent, func() {
		out.db = ilanalyzer.Analyze(unit, ilanalyzer.Options{})
	})
	var ab, bb bytes.Buffer
	tr.call("pdb.write", parent, func() {
		if err := out.db.Write(&ab); err != nil {
			out.diags = append(out.diags, "write: "+err.Error())
		}
	})
	tr.call("pdb.write_bin", parent, func() {
		if err := out.db.WriteBinary(&bb); err != nil {
			out.diags = append(out.diags, "write binary: "+err.Error())
		}
	})
	out.ascii, out.bin = ab.Bytes(), bb.Bytes()
	out.tokens, out.decls = len(toks), len(tree.Decls)
	return out
}

// frontendCounts are the frontend's work counts over a set of TUs.
type frontendCounts struct {
	tokens, decls, insts, bodies, items, binBytes int
}

func (f *frontendCounts) add(c *compiled) {
	f.tokens += c.tokens
	f.decls += c.decls
	f.insts += c.stats.ClassInsts + c.stats.RoutineInsts
	f.bodies += c.stats.BodiesAnalyzed
	f.items += c.db.ItemCount()
	f.binBytes += len(c.bin)
}

// setLayers reports the frontend and writer layers: the counts, and
// the self times per gives for each span name.
func (f *frontendCounts) setLayers(e *env, per func(span string) float64) {
	e.setLayer("pp.busy_s", per("pp"), "s")
	e.setLayer("pp.tokens", float64(f.tokens), "count")
	e.setLayer("parse.busy_s", per("parse"), "s")
	e.setLayer("parse.decls", float64(f.decls), "count")
	e.setLayer("sema.busy_s", per("sema"), "s")
	e.setLayer("sema.instantiations", float64(f.insts), "count")
	e.setLayer("sema.bodies", float64(f.bodies), "count")
	e.setLayer("ilanalyzer.busy_s", per("ilanalyzer"), "s")
	e.setLayer("ilanalyzer.items", float64(f.items), "count")
	e.setLayer("pdb.write_s", per("pdb.write"), "s")
	e.setLayer("pdb.write_bin_s", per("pdb.write_bin"), "s")
	e.setLayer("pdb.bin_bytes", float64(f.binBytes), "bytes")
}

// compileFacade compiles a TU through the core.Compile facade — the
// path cxxparse takes — for the set-up's reference bytes.
func compileFacade(t *tu) ([]byte, error) {
	res := core.CompileSource(fileSet(t.files), t.main, t.files[t.main], core.Options{})
	if res.HasErrors() {
		return nil, res.Diagnostics[0]
	}
	var b bytes.Buffer
	if err := ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}).Write(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// census counts a PDB's items the way shape states them.
func census(db *pdb.PDB) shape {
	s := shape{classes: len(db.Classes), routines: len(db.Routines), templates: len(db.Templates)}
	for _, c := range db.Classes {
		if c.Instantiation {
			s.classInsts++
		}
	}
	for _, r := range db.Routines {
		if r.Template.Valid() {
			s.routineInsts++
		}
	}
	return s
}

// roundTrip is a binary PDB read back and written as ASCII.
type roundTrip struct {
	ascii []byte
	err   error
}

// checkTU checks one TU's output. full adds the validation and census
// checks, made once per TU per run.
func checkTU(t *tu, c *compiled, trip roundTrip, full bool) string {
	name := fmt.Sprintf("%s[%d]", t.family, t.rung)
	switch {
	case len(c.diags) > 0:
		return fmt.Sprintf("%s: diagnostics: %s", name, c.diags[0])
	case !bytes.Equal(c.ascii, t.refASCII):
		return name + ": staged compile differs from the core.Compile reference (nondeterministic output)"
	case trip.err != nil:
		return fmt.Sprintf("%s: binary PDB read-back: %v", name, trip.err)
	case !bytes.Equal(trip.ascii, c.ascii):
		return name + ": binary PDB does not round-trip to the ASCII PDB"
	}
	if !full {
		return ""
	}
	if errs := c.db.Validate(); len(errs) > 0 {
		return fmt.Sprintf("%s: Validate: %v", name, errs[0])
	}
	if t.expect != nil {
		if got := census(c.db); got != *t.expect {
			return fmt.Sprintf("%s: census %+v, generator implies %+v", name, got, *t.expect)
		}
	}
	return ""
}

// compilePass is one pass over the set: the job (source to ASCII and
// binary PDB bytes) and the read side (binary PDB back to ASCII, what
// pdbconv does), each timed as a whole and per TU.
type compilePass struct {
	job, read     time.Duration
	tuJob, tuRead []float64 // seconds, in set order
	outs          []*compiled
	trips         []roundTrip
	tuSpans       []int
	traced        bool
}

func runCompilePass(tr *tracer, set []*tu) *compilePass {
	p := &compilePass{traced: tr != nil}
	root := tr.begin("pass", -1)
	t0 := time.Now()
	for _, t := range set {
		id := tr.begin("tu", root)
		t1 := time.Now()
		p.outs = append(p.outs, compileStaged(tr, id, t))
		p.tuJob = append(p.tuJob, time.Since(t1).Seconds())
		tr.end(id)
		p.tuSpans = append(p.tuSpans, id)
	}
	p.job = time.Since(t0)
	tr.end(root)

	// The read side starts from a collected heap, not from the job's
	// garbage.
	settle()
	root = tr.begin("readback", -1)
	t0 = time.Now()
	for _, c := range p.outs {
		var db *pdb.PDB
		var err error
		var b bytes.Buffer
		t1 := time.Now()
		tr.call("pdb.read_bin", root, func() { db, err = pdb.ReadBinary(bytes.NewReader(c.bin)) })
		if err == nil {
			tr.call("pdb.rewrite", root, func() { err = db.Write(&b) })
		}
		p.tuRead = append(p.tuRead, time.Since(t1).Seconds())
		p.trips = append(p.trips, roundTrip{b.Bytes(), err})
	}
	p.read = time.Since(t0)
	tr.end(root)
	return p
}

func runCompile(e *env) error {
	set, err := repeatSetup(e, 3, func(_ int, lap func()) ([]*tu, error) {
		set := compileSet(newRand(e.seed))
		lap()
		for _, t := range set {
			ref, err := compileFacade(t)
			lap()
			if err != nil {
				e.checks.op(fmt.Sprintf("%s[%d]: core.Compile: %v", t.family, t.rung, err))
				continue
			}
			t.refASCII = ref
		}
		return set, nil
	}, func([]*tu) {})
	if err != nil {
		return err
	}

	var passes []*compilePass
	m := newMeasure(e.seconds)
	for i := 0; m.more(len(passes)); i++ {
		var tr *tracer
		if e.traced && i%2 == 1 {
			tr = e.tr
		}
		m.begin()
		p := runCompilePass(tr, set)
		m.end()
		for j, t := range set {
			e.checks.op(checkTU(t, p.outs[j], p.trips[j], i == 0))
		}
		if i > 0 { // keep the outputs of the first pass only
			p.outs, p.trips = nil, nil
		}
		passes = append(passes, p)
	}
	first := passes[0]

	var pdbBytes, srcBytes int
	for _, c := range first.outs {
		pdbBytes += len(c.ascii)
	}
	for _, t := range set {
		srcBytes += t.srcBytes
	}
	var jobs, reads []float64
	var tuJobs, tuReads [][]float64
	for _, p := range passes {
		if !p.traced {
			jobs = append(jobs, p.job.Seconds())
			reads = append(reads, p.read.Seconds())
			tuJobs = append(tuJobs, p.tuJob)
			tuReads = append(tuReads, p.tuRead)
		}
	}
	jobS, readS := sumOfMedians(tuJobs), sumOfMedians(tuReads)
	e.setE2E("job_s", jobS, "s")
	e.setE2E("read_s", readS, "s")
	e.setE2E("pdb_bytes", float64(pdbBytes), "bytes")
	e.printf("compile: %d TUs, %d source bytes, %d passes: job %s, read %s", len(set), srcBytes, len(jobs), fmtList(jobs), fmtList(reads))
	e.printf("compile_s %.6g s   (source -> pp -> parse -> sema -> ilanalyzer -> ASCII + binary PDB; sum of per-TU medians)", jobS)
	e.printf("compile throughput %.4g MB/s of source", float64(srcBytes)/1e6/jobS)
	e.printf("pdb_bytes %d bytes (ASCII)", pdbBytes)
	if e.traced {
		compileLayers(e, set, passes, jobs)
	}
	return nil
}

// compileLayers fills the per-layer metrics from the traced passes.
func compileLayers(e *env, set []*tu, passes []*compilePass, untracedJobs []float64) {
	var traced []*compilePass
	var tracedJobs []float64
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
			tracedJobs = append(tracedJobs, p.job.Seconds())
		}
	}
	n := float64(len(traced))
	self := e.tr.selfByName()
	per := func(name string) float64 { return self[name].Seconds() / n }

	var f frontendCounts
	for _, c := range passes[0].outs {
		f.add(c)
	}
	f.setLayers(e, per)
	e.setLayer("pdb.read_bin_s", per("pdb.read_bin"), "s")
	e.setLayer("pdb.rewrite_s", per("pdb.rewrite"), "s")
	e.setLayer("other.busy_s", per("pass")+per("tu")+per("readback"), "s")
	e.setLayer("trace.overhead_s", median(tracedJobs)-median(untracedJobs), "s")

	// Scaling exponents: per family, fit each layer's median self time
	// per TU against the TU's source size over the three rungs; report
	// the steepest family, since one super-linear input is enough.
	all := e.tr.snapshot()
	selfs := e.tr.selfTimes()
	byTU := map[int]map[string]time.Duration{} // tu span id -> layer -> self
	for i, s := range all {
		if s.Parent >= 0 && all[s.Parent].Name == "tu" {
			if byTU[s.Parent] == nil {
				byTU[s.Parent] = map[string]time.Duration{}
			}
			byTU[s.Parent][s.Name] += selfs[i]
		}
	}
	layers := []struct{ span, metric string }{
		{"pp", "pp.exponent"}, {"sema", "sema.exponent"},
		{"ilanalyzer", "ilanalyzer.exponent"}, {"pdb.write", "pdb.write.exponent"},
	}
	var fits []string
	for _, l := range layers {
		best, bestFam := 0.0, ""
		for _, lad := range ladders {
			var xs, ys []float64
			for r := 0; r < 3; r++ {
				var samples []float64
				var size int
				for j, t := range set {
					if t.family != lad.family || t.rung != r {
						continue
					}
					size = t.srcBytes
					for _, p := range traced {
						samples = append(samples, byTU[p.tuSpans[j]][l.span].Seconds())
					}
				}
				xs = append(xs, float64(size))
				ys = append(ys, median(samples))
			}
			k := exponent(xs, ys)
			fits = append(fits, fmt.Sprintf("%s/%s=%.2f", l.span, lad.family, k))
			if bestFam == "" || k > best {
				best, bestFam = k, lad.family
			}
		}
		e.setLayer(l.metric, best, "exponent")
		e.printf("%s %.3f (steepest family: %s)", l.metric, best, bestFam)
	}
	e.printf("exponent fits: %s", strings.Join(fits, " "))
}
