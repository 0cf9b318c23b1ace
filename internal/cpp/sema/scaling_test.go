package sema_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pdt/internal/core"
	"pdt/internal/cpp/ast"
	"pdt/internal/cpp/parse"
	"pdt/internal/cpp/pp"
	"pdt/internal/cpp/sema"
	"pdt/internal/source"
	"pdt/internal/workload"
)

// TestTemplateLookupScalesLinearly guards sema's template-name lookup
// against going quadratic in the template count again: analyzing a
// unit with 4k class templates, each named once in a template-id, must
// cost well under 16× analyzing one with k. Indexed lookups give a
// ratio of about 4.5; walking each scope's template list per
// template-id gave about 8 at these sizes (11 under -race).
func TestTemplateLookupScalesLinearly(t *testing.T) {
	const k, maxRatio = 1000, 6.5
	// Best of three, sizes alternating so a burst of load on the host
	// hits both; the collector runs only between analyses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		small = min(small, timeSema(t, k))
		large = min(large, timeSema(t, 4*k))
	}
	ratio := float64(large) / float64(small)
	t.Logf("sema %d templates: %v, %d templates: %v, ratio %.2f", k, small, 4*k, large, ratio)
	if ratio >= maxRatio {
		t.Errorf("analyzing 4x the templates took %.1fx as long (want < %.1f): template lookup is superlinear", ratio, maxRatio)
	}
}

// timeSema preprocesses and parses GenManyTemplates(k), untimed, then
// times sema over the tree.
func timeSema(t *testing.T, k int) time.Duration {
	t.Helper()
	fs := core.NewFileSet(core.Options{})
	f := fs.AddVirtualFile("tu.cpp", workload.GenManyTemplates(k))
	tree := parseFile(t, fs, f)
	runtime.GC()
	t0 := time.Now()
	an := sema.New(f, sema.DefaultOptions())
	an.Analyze(tree)
	d := time.Since(t0)
	if errs := an.Errors(); len(errs) > 0 {
		t.Fatalf("GenManyTemplates(%d): %v", k, errs[0])
	}
	return d
}

func parseFile(t *testing.T, fs *source.FileSet, f *source.File) *ast.TranslationUnit {
	t.Helper()
	tree, errs := parse.ParseFile(f, pp.New(fs).Process(f))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	return tree
}
