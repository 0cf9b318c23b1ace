package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdt/internal/corpus"
	"pdt/internal/ductape"
	"pdt/internal/obs"
	"pdt/internal/pdbio"
	"pdt/internal/workload"
)

// The merge corpus: GenPDBCorpus units with mergeShared shared headers
// (one shared routine each, identical in every unit) and mergeLocal
// unit-local routines. A thousand units put merge in the seconds
// range, where its cost growth shows plainly.
const (
	mergeUnits  = 1000
	mergeShared = 5
	mergeLocal  = 30

	// analyzeSessions is how many analysis sessions follow each merge:
	// one session is short, so several give read_s more samples.
	analyzeSessions = 3
)

type mergeCorpus struct {
	dir       string
	paths     []string
	units     int
	bytesRead int64
}

func setupMerge(e *env, i int) (*mergeCorpus, error) {
	rng := newRand(e.seed)
	n := mergeUnits + rng.Intn(8)
	// Every set-up creates its files in a directory of its own: on
	// ext4, truncating and rewriting a file forces its blocks out at
	// close, so rewriting is slower and far more variable than
	// creating new files.
	dir := filepath.Join(e.workdir, "merge")
	paths, err := workload.GenPDBCorpus(filepath.Join(dir, fmt.Sprintf("units%d", i)), n, mergeShared, mergeLocal)
	if err != nil {
		return nil, err
	}
	// The seed also decides the order the units reach the merge.
	rng.Shuffle(len(paths), func(a, b int) { paths[a], paths[b] = paths[b], paths[a] })
	mc := &mergeCorpus{dir: dir, paths: paths, units: n}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		mc.bytesRead += st.Size()
	}
	return mc, nil
}

// mergePass is one pdbmerge run followed by analyzeSessions cold
// pdbquery / pdblint / pdbtree sessions over its output.
type mergePass struct {
	job      time.Duration
	steps    []float64 // load, merge and write, in seconds
	reads    []time.Duration
	sessions [][]float64 // each analysis session's steps, in seconds
	traced   bool
	outBytes int64
	merged   *ductape.PDB
	dbs      []*ductape.PDB
	unstable bool // the sessions of the pass disagreed
	*analysis
}

func runMergePass(ctx context.Context, tr *tracer, mc *mergeCorpus, out string) (*mergePass, error) {
	p := &mergePass{traced: tr != nil}
	var m *obs.Metrics
	if tr != nil {
		m = obs.New("pipebench")
	}
	opts := []pdbio.Option{pdbio.WithMetrics(m)}

	root := tr.begin("pass", -1)
	t0 := time.Now()
	var err error
	p.steps = append(p.steps, timed(func() {
		tr.call("pdbio.load", root, func() { p.dbs, err = pdbio.LoadAll(ctx, mc.paths, opts...) })
	}))
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	mid := tr.begin("pdbio.merge", root)
	p.steps = append(p.steps, timed(func() { p.merged, err = pdbio.Merge(ctx, p.dbs, opts...) }))
	tr.end(mid)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	if tr != nil {
		tr.graft(mid, "ductape.merge", ductapeTime(m))
	}
	p.steps = append(p.steps, timed(func() {
		tr.call("pdb.write", root, func() { p.outBytes, err = writePDB(out, p.merged) })
	}))
	if err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	p.job = time.Since(t0)
	tr.end(root)

	for i := 0; i < analyzeSessions; i++ {
		settle()
		a, err := analyze(ctx, tr, out)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			p.analysis = a
		} else if !bytes.Equal(a.lint, p.lint) || !bytes.Equal(a.tree, p.tree) {
			p.unstable = true
		}
		p.reads = append(p.reads, a.dur)
		p.sessions = append(p.sessions, a.steps)
	}
	return p, nil
}

// analysis is one cold pdbquery / pdblint / pdbtree session over the
// merged file.
type analysis struct {
	dur      time.Duration
	steps    []float64 // open, graph, fingerprints, lint, tree, in seconds
	lint     []byte
	tree     []byte
	nodes    int
	edges    int
	findings int
	opened   int // routines in the merged file as corpus.Open read it back
}

func analyze(ctx context.Context, tr *tracer, out string) (*analysis, error) {
	a := &analysis{}
	root := tr.begin("analyze", -1)
	defer tr.end(root)
	t0 := time.Now()
	var c *corpus.Corpus
	var err error
	step := func(name string, f func()) {
		a.steps = append(a.steps, timed(func() { tr.call(name, root, f) }))
	}
	step("corpus.open", func() { c, err = corpus.Open(ctx, []string{out}, corpus.Options{}) })
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	step("query.graph", func() {
		g, gerr := c.Graph(ctx)
		if err = gerr; err == nil {
			a.nodes, a.edges = g.Len(), g.EdgeCount()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	step("query.fingerprint", func() { c.Fingerprints() })
	step("analysis.lint", func() {
		var lr *corpus.LintResult
		if lr, err = c.Lint(ctx, corpus.LintRequest{}); err == nil {
			var b bytes.Buffer
			err = lr.Write(&b, "text")
			a.lint, a.findings = b.Bytes(), len(lr.Diags)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	step("corpus.tree", func() {
		var b bytes.Buffer
		err = c.WriteTree(&b, corpus.TreeRequest{Calls: true})
		a.tree = b.Bytes()
	})
	if err != nil {
		return nil, fmt.Errorf("tree: %w", err)
	}
	a.dur = time.Since(t0)
	a.opened = len(c.DB().Routines())
	return a, nil
}

// ductapeTime is the time ductape.Merge ran inside the last pdbio
// merge recorded in m.
func ductapeTime(m *obs.Metrics) time.Duration {
	snap := m.Snapshot()
	for i := len(snap.Spans) - 1; i >= 0; i-- {
		if snap.Spans[i].Name == "merge" {
			return mergeWork(snap.Spans[i])
		}
	}
	return 0
}

// writePDB writes db as ASCII to path, as pdbmerge -o does.
func writePDB(path string, db *ductape.PDB) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	werr := db.Write(w)
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, werr
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// checkMerge checks one pass against the corpus's closed form: each
// shared header and its routine appear once, each unit file and its
// local routines appear once per unit. first is the run's first pass,
// the reference for the determinism checks; full adds validation.
func checkMerge(mc *mergeCorpus, p, first *mergePass, full bool) string {
	wantRoutines := mergeShared + mc.units*mergeLocal
	wantFiles := mergeShared + mc.units
	raw := p.merged.Raw()
	switch {
	case len(raw.Routines) != wantRoutines:
		return fmt.Sprintf("merged %d routines, closed form %d", len(raw.Routines), wantRoutines)
	case len(raw.Files) != wantFiles:
		return fmt.Sprintf("merged %d files, closed form %d", len(raw.Files), wantFiles)
	case p.opened != wantRoutines:
		return fmt.Sprintf("merged file reads back with %d routines, closed form %d", p.opened, wantRoutines)
	case p.unstable || !bytes.Equal(p.lint, first.lint) || !bytes.Equal(p.tree, first.tree) || p.outBytes != first.outBytes:
		return "lint, tree or merged output differs between passes over the same inputs"
	}
	if full {
		if errs := raw.Validate(); len(errs) > 0 {
			return fmt.Sprintf("merged PDB fails Validate: %v", errs[0])
		}
	}
	return ""
}

func runMerge(e *env) error {
	ctx := context.Background()
	// Each pass merges a corpus written just before it, as a rebuild
	// writes its per-unit PDBs before pdbmerge runs. Writing the corpus
	// is disk-bound, and this disk alternates between fast and slow
	// phases of about a second, so set-ups spread over the whole run
	// give a steadier median than set-ups made back to back.
	var setups []float64
	var mc *mergeCorpus
	var passes []*mergePass
	var lastTraced *mergePass
	m := newMeasure(e.seconds)
	for i := 0; m.more(len(passes)); i++ {
		settle()
		t0 := time.Now()
		next, err := setupMerge(e, i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		mc = next
		out := filepath.Join(mc.dir, "merged.pdb")

		var tr *tracer
		if e.traced && i%2 == 1 {
			tr = e.tr
		}
		m.begin()
		p, err := runMergePass(ctx, tr, mc, out)
		m.end()
		if err != nil {
			e.checks.op(err.Error())
			break
		}
		ref := p
		if len(passes) > 0 {
			ref = passes[0]
		}
		e.checks.op(checkMerge(mc, p, ref, i == 0))
		// Keep the databases of the last traced pass only, for the
		// per-layer counts and the exponent ladder.
		if p.traced {
			if lastTraced != nil {
				lastTraced.merged, lastTraced.dbs = nil, nil
			}
			lastTraced = p
		} else {
			p.merged, p.dbs = nil, nil
		}
		passes = append(passes, p)
	}
	e.setE2E("setup_s", median(setups), "s")
	e.printf("setup_s %.6g s, median of %s", median(setups), fmtList(setups))
	if len(passes) == 0 {
		return fmt.Errorf("no merge pass completed")
	}

	var jobs, reads []float64
	var jobSteps, readSteps [][]float64
	for _, p := range passes {
		if !p.traced {
			jobs = append(jobs, p.job.Seconds())
			jobSteps = append(jobSteps, p.steps)
			for _, r := range p.reads {
				reads = append(reads, r.Seconds())
			}
			readSteps = append(readSteps, p.sessions...)
		}
	}
	jobS, readS := sumOfMedians(jobSteps), sumOfMedians(readSteps)
	e.setE2E("job_s", jobS, "s")
	e.setE2E("read_s", readS, "s")
	e.setE2E("pdb_bytes", float64(passes[0].outBytes), "bytes")
	e.printf("merge: %d units, %d passes: job %s, read %s", mc.units, len(jobs), fmtList(jobs), fmtList(reads))
	e.printf("merge_s %.6g s   (pdbio.LoadAll -> pdbio.Merge -> write merged PDB; sum of per-step medians)", jobS)
	e.printf("analyze_s %.6g s   (corpus.Open -> graph -> fingerprints -> full lint -> call tree; sum of per-step medians)", readS)
	e.printf("pdb_bytes %d bytes (merged ASCII PDB)", passes[0].outBytes)
	if e.traced && lastTraced != nil {
		mergeLayers(ctx, e, mc, passes, lastTraced, jobs)
	}
	return nil
}

// mergeLayers fills the per-layer metrics from the traced passes and
// fits ductape's merge exponent over the first quarter, the first
// half and the whole of the corpus.
func mergeLayers(ctx context.Context, e *env, mc *mergeCorpus, passes []*mergePass, last *mergePass, untracedJobs []float64) {
	var tracedJobs []float64
	for _, p := range passes {
		if p.traced {
			tracedJobs = append(tracedJobs, p.job.Seconds())
		}
	}
	n := float64(len(tracedJobs))
	self := e.tr.selfByName()
	per := func(name string) float64 { return self[name].Seconds() / n }
	perSession := func(name string) float64 { return per(name) / analyzeSessions }

	e.setLayer("pdbio.load_s", per("pdbio.load"), "s")
	e.setLayer("pdbio.merge_s", per("pdbio.merge"), "s")
	e.setLayer("pdbio.bytes_read", float64(mc.bytesRead), "bytes")
	e.setLayer("ductape.merge_s", per("ductape.merge"), "s")
	e.setLayer("ductape.merge_items", float64(last.merged.Raw().ItemCount()), "count")
	e.setLayer("pdb.write_s", per("pdb.write"), "s")
	e.setLayer("corpus.open_s", perSession("corpus.open"), "s")
	e.setLayer("query.graph_s", perSession("query.graph"), "s")
	e.setLayer("query.fingerprint_s", perSession("query.fingerprint"), "s")
	e.setLayer("query.nodes", float64(last.nodes), "count")
	e.setLayer("query.edges", float64(last.edges), "count")
	e.setLayer("analysis.lint_s", perSession("analysis.lint"), "s")
	e.setLayer("analysis.findings", float64(last.findings), "count")
	e.setLayer("corpus.tree_s", perSession("corpus.tree"), "s")
	e.setLayer("other.busy_s", per("pass")+perSession("analyze"), "s")
	e.setLayer("trace.overhead_s", median(tracedJobs)-median(untracedJobs), "s")

	xs := []float64{float64(len(last.dbs))}
	ys := []float64{per("ductape.merge")}
	for _, q := range []int{len(last.dbs) / 4, len(last.dbs) / 2} {
		m := obs.New("pipebench")
		if _, err := pdbio.Merge(ctx, last.dbs[:q], pdbio.WithMetrics(m)); err != nil {
			e.checks.op(fmt.Sprintf("merge of the first %d units: %v", q, err))
			continue
		}
		xs = append(xs, float64(q))
		ys = append(ys, ductapeTime(m).Seconds())
	}
	k := exponent(xs, ys)
	e.setLayer("ductape.merge.exponent", k, "exponent")
	e.printf("ductape.merge.exponent %.3f over %v units (ductape time %v s)", k, xs, ys)
	e.printf("ductape.merge_s is %.1f%% of merge_s", 100*per("ductape.merge")/median(tracedJobs))
}
