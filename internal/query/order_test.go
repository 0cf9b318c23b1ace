package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdt/internal/core"
	"pdt/internal/corpus"
	"pdt/internal/ductape"
	"pdt/internal/ilanalyzer"
	"pdt/internal/pdb"
	"pdt/internal/query"
	"pdt/internal/schema"
	"pdt/internal/workload"
)

// compileTU compiles one translation unit of a virtual file map.
func compileTU(tb testing.TB, files map[string]string, main string) *ductape.PDB {
	tb.Helper()
	opts := core.Options{}
	fset := core.NewFileSet(opts)
	for name, text := range files {
		if name != main {
			fset.AddVirtualFile(name, text)
		}
	}
	res := core.CompileSource(fset, main, files[main], opts)
	for _, d := range res.Diagnostics {
		tb.Fatalf("compile %s: %v", main, d)
	}
	return ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
}

// compileDisk compiles an on-disk translation unit; its headers keep
// their directory in their file names.
func compileDisk(tb testing.TB, path string) *ductape.PDB {
	tb.Helper()
	opts := core.Options{}
	res, err := core.CompileFile(core.NewFileSet(opts), path, opts)
	if err != nil {
		tb.Fatalf("compile %s: %v", path, err)
	}
	for _, d := range res.Diagnostics {
		tb.Fatalf("compile %s: %v", path, d)
	}
	return ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
}

// mergeUnitsDB compiles GenMergeUnits(m, sharedInsts, localClasses)
// into one merged database, one unit file per translation unit.
func mergeUnitsDB(tb testing.TB, m, sharedInsts, localClasses int) *ductape.PDB {
	tb.Helper()
	hdr, units := workload.GenMergeUnits(m, sharedInsts, localClasses)
	dbs := make([]*ductape.PDB, len(units))
	for u, src := range units {
		name := fmt.Sprintf("unit%03d.cpp", u)
		dbs[u] = compileTU(tb, map[string]string{"shared.h": hdr, name: src}, name)
	}
	return ductape.Merge(dbs...)
}

// odrRaw is a hand-built database full of name clashes: classes and
// routines defined twice at different places ("@file:line" names),
// twice at one place and with no place ("#n" names), and two headers
// that share a base name in different directories.
func odrRaw() *pdb.PDB {
	fref := func(n int) pdb.Ref { return pdb.Ref{Prefix: "so", ID: n} }
	loc := func(file, line int) pdb.Loc { return pdb.Loc{File: fref(file), Line: line, Col: 1} }
	ro := func(n int) pdb.Ref { return pdb.Ref{Prefix: "ro", ID: n} }
	return &pdb.PDB{
		Files: []*pdb.SourceFile{
			{ID: 1, Name: "src/main.cc", Includes: []pdb.Ref{fref(2), fref(3)}},
			{ID: 2, Name: "include/util.h", Includes: []pdb.Ref{fref(4)}},
			{ID: 3, Name: "vendor/util.h", Includes: []pdb.Ref{fref(4)}},
			{ID: 4, Name: "base.h"},
			{ID: 5, Name: "src/other.cc", Includes: []pdb.Ref{fref(3)}},
		},
		Classes: []*pdb.Class{
			{ID: 10, Name: "Point", Loc: loc(2, 3)},
			{ID: 11, Name: "Point", Loc: loc(3, 3)},
			{ID: 12, Name: "Point", Loc: loc(3, 3)},
			{ID: 13, Name: "Anon"},
			{ID: 14, Name: "Anon"},
			{ID: 15, Name: "Derived", Loc: loc(1, 9),
				Bases: []pdb.BaseClass{{Access: "pub", Class: pdb.Ref{Prefix: "cl", ID: 11}}}},
			{ID: 16, Name: "Box<int>", Loc: loc(4, 4),
				Template: pdb.Ref{Prefix: "te", ID: 20}, Instantiation: true},
		},
		Templates: []*pdb.Template{
			{ID: 20, Name: "Box", Loc: loc(4, 1), Kind: "class"},
			{ID: 21, Name: "Box", Loc: loc(2, 8), Kind: "class"},
		},
		Routines: []*pdb.Routine{
			{ID: 30, Name: "main", Loc: loc(1, 20),
				Calls: []pdb.Call{{Callee: ro(31), Loc: loc(1, 21)}, {Callee: ro(32), Loc: loc(1, 22)}}},
			{ID: 31, Name: "helper", Loc: loc(2, 10),
				Calls: []pdb.Call{{Callee: ro(33), Loc: loc(2, 11)}}},
			{ID: 32, Name: "helper", Loc: loc(3, 10),
				Calls: []pdb.Call{{Callee: ro(33), Loc: loc(3, 11)}}},
			{ID: 33, Name: "leaf", Loc: loc(4, 10)},
			{ID: 34, Name: "leaf", Loc: loc(4, 10)},
			{ID: 35, Name: "stray"},
			{ID: 36, Name: "stray"},
			{ID: 37, Name: "other", Loc: loc(5, 2), Calls: []pdb.Call{{Callee: ro(34), Loc: loc(5, 3)}}},
			// Two shortest paths pa -> pt, via pb/pz and via pc/py: the
			// second frontier is found as [pz py] and must be expanded
			// in key order, so the path runs through py.
			{ID: 40, Name: "pa", Calls: []pdb.Call{{Callee: ro(41)}, {Callee: ro(42)}}},
			{ID: 41, Name: "pb", Calls: []pdb.Call{{Callee: ro(43)}}},
			{ID: 42, Name: "pc", Calls: []pdb.Call{{Callee: ro(44)}}},
			{ID: 43, Name: "pz", Calls: []pdb.Call{{Callee: ro(45)}}},
			{ID: 44, Name: "py", Calls: []pdb.Call{{Callee: ro(45)}}},
			{ID: 45, Name: "pt"},
		},
	}
}

// orderCorpora are the corpora the byte-identity oracle runs on.
func orderCorpora() map[string]func(t *testing.T) *ductape.PDB {
	return map[string]func(t *testing.T) *ductape.PDB{
		"merge_units": func(t *testing.T) *ductape.PDB { return mergeUnitsDB(t, 12, 8, 6) },
		"layered_lib": func(t *testing.T) *ductape.PDB {
			files, main := workload.GenLayeredLib(3, 2, 3)
			return compileTU(t, files, main)
		},
		"krylov_stack": func(t *testing.T) *ductape.PDB {
			return ductape.Merge(
				compileTU(t, workload.KrylovFiles(), "krylov.cpp"),
				compileTU(t, workload.StackFiles(), "TestStackAr.cpp"))
		},
		"lintdemo": func(t *testing.T) *ductape.PDB {
			dir := filepath.Join("..", "..", "testdata", "cxx", "lintdemo")
			var dbs []*ductape.PDB
			for _, f := range []string{"one.cpp", "two.cpp", "main.cpp"} {
				dbs = append(dbs, compileDisk(t, filepath.Join(dir, f)))
			}
			return ductape.Merge(dbs...)
		},
		// Not merged: the merge folds the same-place duplicates that
		// make "#n" names.
		"odr": func(t *testing.T) *ductape.PDB { return ductape.FromRaw(odrRaw()) },
	}
}

// TestQueryAnswersMatchOracle holds every query command, in text and
// JSON, to the string-sorted oracle: the rank-ordered answers must
// render the same bytes.
func TestQueryAnswersMatchOracle(t *testing.T) {
	for name, build := range orderCorpora() {
		t.Run(name, func(t *testing.T) {
			c := corpus.FromDB(build(t), corpus.Options{})
			g, err := c.Graph(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			reqs := oracleRequests(g)
			if name == "odr" && !hasClashNames(g) {
				t.Fatal("odr corpus has no @file:line or #n node names")
			}
			for _, req := range reqs {
				checkAgainstOracle(t, c, g, req)
			}
		})
	}
}

func hasClashNames(g *query.Graph) bool {
	var at, ord bool
	for _, n := range g.Nodes() {
		at = at || (n.Kind != query.KindFile && strings.Contains(n.Name, "@"))
		ord = ord || strings.Contains(n.Name, "#")
	}
	return at && ord
}

// oracleRequests is a spread of requests over g: every command, node
// specs by key, name, bare name and base name, depths 0-3, and specs
// that match nothing.
func oracleRequests(g *query.Graph) []corpus.QueryRequest {
	all := query.OracleNodes(g)
	step := max(1, len(all)/24)
	var sample []*query.Node
	for i := 0; i < len(all); i += step {
		sample = append(sample, all[i])
	}
	var files []*query.Node
	for _, n := range all {
		if n.Kind == query.KindFile {
			files = append(files, n)
		}
	}
	for i := 0; i < len(files); i += max(1, len(files)/8) {
		sample = append(sample, files[i])
	}
	for _, n := range all {
		if strings.ContainsAny(n.Name, "@#") {
			sample = append(sample, n)
		}
	}

	var specs []string
	for _, n := range sample {
		specs = append(specs, n.Key(), n.Name)
		if bare, _, ok := strings.Cut(n.Name, "@"); ok {
			specs = append(specs, bare)
		}
		if bare, _, ok := strings.Cut(n.Name, "#"); ok {
			specs = append(specs, bare)
		}
		if i := strings.LastIndexByte(n.Name, '/'); n.Kind == query.KindFile && i >= 0 {
			specs = append(specs, n.Name[i+1:])
		}
	}
	specs = append(specs, "no-such-node", "file:no-such-file.h")

	reqs := []corpus.QueryRequest{{Command: corpus.CmdNodes}}
	add := func(cmd string, depth int, args ...string) {
		reqs = append(reqs, corpus.QueryRequest{Command: cmd, Args: args, Depth: depth})
	}
	for _, spec := range specs {
		add(corpus.CmdLookup, 0, spec)
		add(corpus.CmdWhatInputs, 0, spec)
		for d := 0; d <= 3; d++ {
			add(corpus.CmdDeps, d, spec)
			add(corpus.CmdRevDeps, d, spec)
		}
	}
	add(corpus.CmdLookup, 0, specs[0], specs[len(specs)/2])
	add(corpus.CmdDeps, 2, specs[1], specs[len(specs)/3])
	for i, from := range sample {
		tos := []*query.Node{sample[(i+1)%len(sample)], sample[(i*7+3)%len(sample)], files[i%len(files)]}
		if len(all) <= 40 {
			tos = all
		}
		for _, to := range tos {
			add(corpus.CmdSomePath, 0, from.Key(), to.Key())
			add(corpus.CmdReaches, 0, from.Key(), to.Key())
		}
	}
	add(corpus.CmdSomePath, 0, "no-such-node", all[0].Key())
	for _, f := range files {
		add(corpus.CmdAffected, 0, f.Name)
		if i := strings.LastIndexByte(f.Name, '/'); i >= 0 {
			add(corpus.CmdAffected, 0, f.Name[i+1:])
		}
	}
	add(corpus.CmdAffected, 0, files[0].Name, files[len(files)-1].Name, "ghost.cc")
	add(corpus.CmdAffected, 0, "ghost.cc")
	return reqs
}

// checkAgainstOracle runs req through corpus.Query and through the
// oracle, and compares the outcome and both renderings.
func checkAgainstOracle(t *testing.T, c *corpus.Corpus, g *query.Graph, req corpus.QueryRequest) {
	t.Helper()
	want, wantErr := oracleQuery(g, req)
	res, err := c.Query(context.Background(), req)
	if wantErr != nil || err != nil {
		if !errors.Is(err, wantErr) {
			t.Errorf("%s %v depth %d: error %v, oracle %v", req.Command, req.Args, req.Depth, err, wantErr)
		}
		return
	}
	for _, format := range []string{"text", "json"} {
		var got, exp bytes.Buffer
		if err := res.Write(&got, format); err != nil {
			t.Fatal(err)
		}
		if err := want(&exp, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Errorf("%s %v depth %d (%s) differs from the oracle\n--- got ---\n%s--- oracle ---\n%s",
				req.Command, req.Args, req.Depth, format, got.Bytes(), exp.Bytes())
		}
	}
}

// oracleQuery answers req with the oracle and returns its renderer, or
// the error class corpus.Query must return.
func oracleQuery(g *query.Graph, req corpus.QueryRequest) (func(io.Writer, string) error, error) {
	resolve := func(specs []string) ([]*query.Node, error) {
		var out []*query.Node
		for _, spec := range specs {
			ns := query.OracleLookup(g, spec)
			if len(ns) == 0 {
				return nil, corpus.ErrNotFound
			}
			out = append(out, ns...)
		}
		return out, nil
	}
	nodes := func(ns []*query.Node) func(io.Writer, string) error {
		return func(w io.Writer, format string) error { return oracleWriteNodes(w, format, ns) }
	}
	switch req.Command {
	case corpus.CmdNodes:
		return nodes(query.OracleNodes(g)), nil
	case corpus.CmdLookup, corpus.CmdDeps, corpus.CmdRevDeps, corpus.CmdWhatInputs:
		ns, err := resolve(req.Args)
		if err != nil {
			return nil, err
		}
		switch req.Command {
		case corpus.CmdDeps:
			ns = query.OracleDeps(ns, req.Depth)
		case corpus.CmdRevDeps:
			ns = query.OracleRevDeps(ns, req.Depth)
		case corpus.CmdWhatInputs:
			for _, n := range ns {
				if n.Kind != query.KindFile {
					return nil, corpus.ErrBadRequest
				}
			}
			ns = query.OracleWhatInputs(ns)
		}
		return nodes(ns), nil
	case corpus.CmdSomePath, corpus.CmdReaches:
		var ends []*query.Node
		for _, spec := range req.Args {
			ns := query.OracleLookup(g, spec)
			if len(ns) == 0 {
				return nil, corpus.ErrNotFound
			}
			if len(ns) > 1 {
				return nil, corpus.ErrBadRequest
			}
			ends = append(ends, ns[0])
		}
		path := query.OracleSomePath(ends[0], ends[1])
		if req.Command == corpus.CmdReaches {
			return func(w io.Writer, format string) error { return oracleWriteBool(w, format, path != nil) }, nil
		}
		return func(w io.Writer, format string) error { return oracleWritePath(w, format, path) }, nil
	case corpus.CmdAffected:
		ns, units := query.OracleAffected(g, req.Args)
		return func(w io.Writer, format string) error { return oracleWriteAffected(w, format, ns, units) }, nil
	}
	return nil, corpus.ErrBadRequest
}

// The renderers below are the query renderers as they were before they
// appended into one buffer: one fmt call per line.

type oracleNodeJSON struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

func oracleMarshalNodes(ns []*query.Node) []oracleNodeJSON {
	out := make([]oracleNodeJSON, 0, len(ns))
	for _, n := range ns {
		out = append(out, oracleNodeJSON{Kind: string(n.Kind), Name: n.Name})
	}
	return out
}

func oracleWriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func oracleWriteNodes(w io.Writer, format string, ns []*query.Node) error {
	if format == "json" {
		return oracleWriteJSON(w, struct {
			SchemaVersion int              `json:"schema_version"`
			Nodes         []oracleNodeJSON `json:"nodes"`
		}{schema.Version, oracleMarshalNodes(ns)})
	}
	for _, n := range ns {
		if _, err := fmt.Fprintln(w, string(n.Kind)+":"+n.Name); err != nil {
			return err
		}
	}
	return nil
}

func oracleWriteBool(w io.Writer, format string, v bool) error {
	if format == "json" {
		return oracleWriteJSON(w, struct {
			SchemaVersion int  `json:"schema_version"`
			Reaches       bool `json:"reaches"`
		}{schema.Version, v})
	}
	_, err := fmt.Fprintln(w, v)
	return err
}

func oracleWritePath(w io.Writer, format string, path []query.Edge) error {
	if format == "json" {
		p := path
		if p == nil {
			p = []query.Edge{}
		}
		return oracleWriteJSON(w, struct {
			SchemaVersion int          `json:"schema_version"`
			Found         bool         `json:"found"`
			Path          []query.Edge `json:"path"`
		}{schema.Version, path != nil, p})
	}
	if path == nil {
		_, err := fmt.Fprintln(w, "no path")
		return err
	}
	for i, e := range path {
		if i == 0 {
			if _, err := fmt.Fprintln(w, e.From); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  -%s-> %s\n", e.Kind, e.To); err != nil {
			return err
		}
	}
	return nil
}

func oracleWriteAffected(w io.Writer, format string, ns []*query.Node, units []string) error {
	if format == "json" {
		if units == nil {
			units = []string{}
		}
		return oracleWriteJSON(w, struct {
			SchemaVersion int              `json:"schema_version"`
			Units         []string         `json:"units"`
			Nodes         []oracleNodeJSON `json:"nodes"`
		}{schema.Version, units, oracleMarshalNodes(ns)})
	}
	return oracleWriteNodes(w, "text", ns)
}

// TestAffectedAllocsFlat guards the sort-free answer by allocation
// count rather than time: an affected answer, its node list and its
// text rendering allocate about as often on a four times larger
// corpus. Sorting by rebuilt key strings allocates O(n log n) per
// answer.
func TestAffectedAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 250 generated units")
	}
	allocs := func(units int) float64 {
		c := corpus.FromDB(mergeUnitsDB(t, units, 8, 6), corpus.Options{})
		g, err := c.Graph(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		req := corpus.QueryRequest{Command: corpus.CmdAffected, Args: []string{"unit000.cpp"}}
		return testing.AllocsPerRun(5, func() {
			res, err := c.Query(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Nodes()) == 0 {
				t.Fatal("empty graph")
			}
			if err := res.Write(io.Discard, "text"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(200)
	if large > 2*small {
		t.Errorf("affected + nodes + text render: %.0f allocs on 200 units, %.0f on 50; want at most 2x", large, small)
	}
}

// TestOrderConcurrentFirstQueries starts many goroutines that ask a
// freshly built graph its first ordered questions at the same moment:
// the lazily built key order must come out once, race-free, and give
// every goroutine the answers a settled graph gives. Run under -race.
func TestOrderConcurrentFirstQueries(t *testing.T) {
	db := ductape.FromRaw(odrRaw())
	settled := query.New(db)
	wantAffected := keysOf(settled.Affected([]string{"util.h"}).Nodes())
	wantLookup := keysOf(settled.Lookup("helper"))
	wantPath := settled.SomePath(settled.Lookup("routine:main()")[0], settled.Lookup("file:base.h")[0])

	g := query.New(db)
	// Exact keys resolve through the node map, not the order, so the
	// endpoints are in hand before any goroutine builds it.
	from, to := g.Lookup("routine:main()")[0], g.Lookup("file:base.h")[0]
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			switch i % 3 {
			case 0:
				if got := keysOf(g.Affected([]string{"util.h"}).Nodes()); !equalStrings(got, wantAffected) {
					t.Errorf("Affected(util.h) = %v, want %v", got, wantAffected)
				}
			case 1:
				if got := keysOf(g.Lookup("helper")); !equalStrings(got, wantLookup) {
					t.Errorf("Lookup(helper) = %v, want %v", got, wantLookup)
				}
			case 2:
				if got := g.SomePath(from, to); fmt.Sprint(got) != fmt.Sprint(wantPath) {
					t.Errorf("SomePath(main, base.h) = %v, want %v", got, wantPath)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
}

func keysOf(ns []*query.Node) []string {
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, n.Key())
	}
	return out
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n")
}
