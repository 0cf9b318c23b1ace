package ductape_test

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pdt/internal/ductape"
	"pdt/internal/workload"
)

// TestMergeScalesLinearly guards the merge against going quadratic in
// corpus size again: merging 4n units must cost well under 16× merging
// n units. A linear merge gives a ratio of about 4–5; a merge that
// rescanned its growing output for every copied item gave about 24 at
// these sizes.
func TestMergeScalesLinearly(t *testing.T) {
	const n, maxRatio = 500, 8.0
	paths, err := workload.GenPDBCorpus(filepath.Join(t.TempDir(), "corpus"), 4*n, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*ductape.PDB, len(paths))
	for i, p := range paths {
		if dbs[i], err = ductape.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	// Best of three merges of the first n and of all 4n units, run
	// alternately so a burst of load on the host hits both sizes. The
	// collector runs only between merges: otherwise the 4n merge pays
	// for a collection of the whole loaded corpus that the n merge
	// escapes, which says nothing about the merge itself.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		small = min(small, timeMerge(t, dbs[:n]))
		large = min(large, timeMerge(t, dbs))
	}
	ratio := float64(large) / float64(small)
	t.Logf("merge %d units: %v, %d units: %v, ratio %.2f", n, small, 4*n, large, ratio)
	if ratio >= maxRatio {
		t.Errorf("merging 4x the units took %.1fx as long (want < %.0f): merge is superlinear", ratio, maxRatio)
	}
}

// timeMerge merges dbs once, from a collected heap, and checks the
// merged routine count: the shared routines once, every unit's local
// routines.
func timeMerge(t *testing.T, dbs []*ductape.PDB) time.Duration {
	t.Helper()
	runtime.GC()
	t0 := time.Now()
	merged := ductape.Merge(dbs...)
	d := time.Since(t0)
	if got, want := len(merged.Routines()), 5+30*len(dbs); got != want {
		t.Fatalf("%d units merged into %d routines, want %d", len(dbs), got, want)
	}
	return d
}
