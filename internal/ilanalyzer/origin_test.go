package ilanalyzer

import (
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdt/internal/core"
	"pdt/internal/il"
	"pdt/internal/source"
	"pdt/internal/workload"
)

// scanForTemplate finds the template whose definition span contains
// loc. This reproduces the paper's matching: instantiations carry their
// template's source location, so containment identifies the origin;
// specializations live outside any template's span and find nothing.
//
// It is the analyzer's original linear scan over the template list,
// kept as the oracle that templateForLoc must agree with.
func (a *Analyzer) scanForTemplate(loc source.Loc) *il.Template {
	var best *il.Template
	bestSize := 1 << 30
	for _, ts := range a.templateSpans {
		if !ts.span.Valid() || loc.File != ts.span.Begin.File {
			continue
		}
		if loc.Line < ts.span.Begin.Line || (ts.span.End.Valid() && loc.Line > ts.span.End.Line) {
			continue
		}
		// Member-function templates defined in-class nest inside the
		// class template's span; the narrowest containing span is the
		// correct origin (Figure 3: ro#7 push links to te#566 push,
		// not te#559 Stack).
		size := 1 << 29
		if ts.span.End.Valid() {
			size = ts.span.End.Line - ts.span.Begin.Line
		}
		if size < bestSize {
			bestSize = size
			best = ts.t
		}
	}
	return best
}

// originUnits compiles every translation unit under testdata/cxx and
// the five compile families at small sizes.
func originUnits(t *testing.T) map[string]*il.Unit {
	t.Helper()
	units := map[string]*il.Unit{}
	compile := func(name string, files map[string]string, main string) {
		set := core.NewFileSet(core.Options{})
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			set.AddVirtualFile(n, files[n])
		}
		units[name] = core.Compile(set, set.Lookup(main), core.Options{}).Unit
	}
	single := func(src string) map[string]string { return map[string]string{"tu.cpp": src} }
	compile("classes", single(workload.GenClasses(12, 3)), "tu.cpp")
	compile("many_templates", single(workload.GenManyTemplates(40)), "tu.cpp")
	compile("template_fanout", single(workload.GenTemplateFanout(8, 6, 3)), "tu.cpp")
	compile("distinct_insts", single(workload.GenDistinctInstantiations(25)), "tu.cpp")
	files, main := workload.GenLayeredLib(3, 2, 3)
	compile("layered_lib", files, main)

	root := filepath.Join("..", "..", "testdata", "cxx")
	var dirs, tus []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			dirs = append(dirs, path)
		case strings.HasSuffix(path, ".cpp"):
			tus = append(tus, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{IncludePaths: dirs}
	for _, path := range tus {
		res, err := core.CompileFile(core.NewFileSet(opts), path, opts)
		if err != nil {
			t.Fatal(err)
		}
		units[path] = res.Unit
	}
	if len(tus) == 0 {
		t.Fatalf("no translation units under %s", root)
	}
	return units
}

// TestTemplateOriginIndexMatchesScan checks that the per-file origin
// index returns what the linear scan returns for the location of every
// routine and class, instantiated or not, in every test unit.
func TestTemplateOriginIndexMatchesScan(t *testing.T) {
	for name, unit := range originUnits(t) {
		a := New(unit, Options{})
		a.assignIDs()
		a.buildTemplateList()
		var locs []source.Loc
		insts, found := 0, 0
		for _, r := range unit.AllRoutines {
			locs = append(locs, r.Loc)
			if r.IsInstantiation {
				insts++
			}
		}
		for _, c := range unit.AllClasses {
			locs = append(locs, c.Loc)
			if c.IsInstantiation || c.IsSpecialization {
				insts++
			}
		}
		for _, loc := range locs {
			want := a.scanForTemplate(loc)
			if got := a.templateForLoc(loc); got != want {
				t.Errorf("%s: origin of %v is %s, the scan finds %s", name, loc, templateName(got), templateName(want))
			}
			if want != nil {
				found++
			}
		}
		if insts > 0 && found == 0 {
			t.Errorf("%s: %d instantiations but no location lies in a template span", name, insts)
		}
	}
}

func templateName(t *il.Template) string {
	if t == nil {
		return "<none>"
	}
	return t.Name + "@" + t.Loc.String()
}

// FuzzTemplateOriginIndexMatchesScan checks index == scan over random
// span sets: three files and spans with no file, nested and equal
// spans, spans with no valid end, ends before begins, spans too wide
// to ever win, and query lines outside every span.
func FuzzTemplateOriginIndexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 40, 0, 0, 1, 40, 0, 0, 2, 41, 0})
	f.Add([]byte{0, 3, 10, 1, 1, 3, 20, 2, 0, 5, 50, 0, 2, 7, 0, 0})
	f.Add([]byte{0, 9, 36, 0, 0, 4, 255, 0, 0, 4, 254, 0, 3, 2, 60, 0})
	f.Fuzz(checkIndexMatchesScan)
}

// checkIndexMatchesScan decodes data as up to 256 spans of four bytes
// each (begin file, begin line, end shape, end file) and compares index
// and scan at every line of every file.
func checkIndexMatchesScan(t *testing.T, data []byte) {
	files := []*source.File{{Name: "a.h"}, {Name: "b.h"}, {Name: "c.cpp"}, nil}
	a := &Analyzer{}
	for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
		file, begin, end, endFile := data[i], int(data[i+1]%48), data[i+2], data[i+3]
		span := source.Span{Begin: source.Loc{File: files[file%4], Line: begin}}
		span.End.File = files[endFile%4]
		switch {
		case end < 32: // no valid end
			span.End = source.Loc{}
		case end < 48: // ends before it begins, maybe at line <= 0
			span.End.Line = begin - 1 - int(end-32)
		case end == 255:
			span.End.Line = begin + 1<<30
		case end == 254:
			span.End.Line = begin + 1<<30 - 1
		default:
			span.End.Line = begin + int(end-48)%24
		}
		a.templateSpans = append(a.templateSpans, templateSpan{t: &il.Template{Name: "t"}, span: span})
	}
	a.origins = indexOrigins(a.templateSpans)
	// Spans begin before line 48 and end by line 71 or 1<<30 lines on.
	lines := []int{math.MinInt, -1, math.MaxInt}
	for l := 0; l < 48+24+2; l++ {
		lines = append(lines, l, l+1<<30-1, l+1<<30)
	}
	for _, file := range files {
		for _, line := range lines {
			loc := source.Loc{File: file, Line: line, Col: 1}
			if got, want := a.templateForLoc(loc), a.scanForTemplate(loc); got != want {
				t.Fatalf("line %d of file %v: index found %p, scan found %p", line, file, got, want)
			}
		}
	}
}
