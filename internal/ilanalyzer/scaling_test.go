package ilanalyzer_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pdt/internal/core"
	"pdt/internal/il"
	"pdt/internal/ilanalyzer"
	"pdt/internal/workload"
)

// TestAnalyzeScalesLinearly guards the template-origin match against
// going quadratic in the template count again: analyzing a unit with
// 4k class templates, each instantiated once, must cost well under 16×
// analyzing one with k. The indexed match gives a ratio of about 4.5–5
// (up to 7 on a loaded host); the linear scan over the template list
// gave about 15 at these sizes, with or without -race.
func TestAnalyzeScalesLinearly(t *testing.T) {
	const k, maxRatio = 1000, 10.0
	small, large := manyTemplatesUnit(t, k), manyTemplatesUnit(t, 4*k)
	// Best of three, sizes alternating so a burst of load on the host
	// hits both; the collector runs only between analyses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ts, tl := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		ts = min(ts, timeAnalyze(small))
		tl = min(tl, timeAnalyze(large))
	}
	ratio := float64(tl) / float64(ts)
	t.Logf("analyze %d templates: %v, %d templates: %v, ratio %.2f", k, ts, 4*k, tl, ratio)
	if ratio >= maxRatio {
		t.Errorf("analyzing 4x the templates took %.1fx as long (want < %.0f): the origin match is superlinear", ratio, maxRatio)
	}
}

func manyTemplatesUnit(t *testing.T, k int) *il.Unit {
	t.Helper()
	fs := core.NewFileSet(core.Options{})
	res := core.CompileSource(fs, "tu.cpp", workload.GenManyTemplates(k), core.Options{})
	if res.HasErrors() {
		t.Fatalf("GenManyTemplates(%d): %v", k, res.Diagnostics[0])
	}
	return res.Unit
}

func timeAnalyze(unit *il.Unit) time.Duration {
	runtime.GC()
	t0 := time.Now()
	ilanalyzer.Analyze(unit, ilanalyzer.Options{TemplateOrigin: ilanalyzer.OriginScan})
	return time.Since(t0)
}
