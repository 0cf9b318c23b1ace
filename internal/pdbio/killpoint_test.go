package pdbio_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pdt/internal/faultio"
	"pdt/internal/pdbio"
)

// killpointSeed honors PDT_KILLPOINT_SEED so CI can sweep different
// random kill offsets across runs while any failure stays reproducible
// from the logged seed.
func killpointSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("PDT_KILLPOINT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PDT_KILLPOINT_SEED=%q: %v", s, err)
		}
		return v
	}
	return 1
}

// tinyInput returns the text of a minimal program database: a shared
// header (so merges dedup something) plus one unit-local file and
// routine. Small inputs keep the kill-point sweeps cheap — every byte
// written is a crash site.
func tinyInput(i int) string {
	return fmt.Sprintf("<PDB 1.0>\n\nso#1 common.h\n\nso#2 unit%d.cpp\nsinc 1\n\nro#3 f%d\nrloc so#2 1 1\nracs NA\nrkind fun\nrlink C++\n", i, i)
}

// writeTinyInputs materializes n tiny databases on disk.
func writeTinyInputs(t *testing.T, dir string, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("in%d.pdb", i))
		if err := os.WriteFile(paths[i], []byte(tinyInput(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// checkTargetIntact asserts the never-torn invariant on the output
// path: after a kill it must hold nothing, the pre-existing bytes, or
// the complete merged bytes — never a prefix or a mix.
func checkTargetIntact(target string, preExisting bool, old, golden []byte) error {
	got, err := os.ReadFile(target)
	switch {
	case err != nil && os.IsNotExist(err) && !preExisting:
		return nil
	case err != nil && os.IsNotExist(err) && preExisting:
		return errors.New("pre-existing output vanished")
	case err != nil:
		return err
	case preExisting && bytes.Equal(got, old):
		return nil
	case bytes.Equal(got, golden):
		return nil
	default:
		return fmt.Errorf("TORN OUTPUT: %d bytes, want absent, %d old bytes, or %d merged bytes", len(got), len(old), len(golden))
	}
}

// TestMergeToFileNeverTornAtAnyKillPoint is the crash-consistency
// property of pdbmerge: probe the full pipeline to count its write
// sites, then kill it at every single one and assert the output path
// is never torn, and that the unkilled run produces the golden bytes.
func TestMergeToFileNeverTornAtAnyKillPoint(t *testing.T) {
	base := t.TempDir()
	paths := writeTinyInputs(t, base, 3)
	ctx := context.Background()

	goldenPath := filepath.Join(base, "golden.pdb")
	if err := pdbio.MergeToFile(ctx, goldenPath, paths); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	// Probe run: an unlimited budget counts the sites without killing.
	probe := faultio.NewCrashFS(nil, -1)
	if err := pdbio.MergeToFile(ctx, filepath.Join(base, "probe.pdb"), paths,
		pdbio.WithWorkers(1), pdbio.WithWriteFS(probe)); err != nil {
		t.Fatalf("probe: %v", err)
	}
	sites := probe.Sites()
	if sites < int64(len(golden)) {
		t.Fatalf("probe counted %d sites for a %d-byte output", sites, len(golden))
	}
	t.Logf("sweeping %d kill sites", sites)

	old := []byte("pre-existing output from an earlier run\n")
	for k := int64(0); k <= sites; k++ {
		dir := filepath.Join(base, fmt.Sprintf("k%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dir, "out.pdb")
		preExisting := k%2 == 1
		if preExisting {
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cfs := faultio.NewCrashFS(nil, k)
		err := pdbio.MergeToFile(ctx, target, paths,
			pdbio.WithWorkers(1), pdbio.WithWriteFS(cfs))
		if k < sites && !errors.Is(err, faultio.ErrKilled) {
			t.Fatalf("k=%d: err = %v, want ErrKilled", k, err)
		}
		if k == sites && err != nil {
			t.Fatalf("k=%d: full budget: %v", k, err)
		}
		if err := checkTargetIntact(target, preExisting, old, golden); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeToFileKillPointConcurrent re-checks the never-torn property
// with concurrent loading. The sampled kill budgets come from
// PDT_KILLPOINT_SEED so CI shuffles coverage.
func TestMergeToFileKillPointConcurrent(t *testing.T) {
	base := t.TempDir()
	paths := writeTinyInputs(t, base, 6)
	ctx := context.Background()

	goldenPath := filepath.Join(base, "golden.pdb")
	if err := pdbio.MergeToFile(ctx, goldenPath, paths); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	probe := faultio.NewCrashFS(nil, -1)
	if err := pdbio.MergeToFile(ctx, filepath.Join(base, "probe.pdb"), paths,
		pdbio.WithWorkers(4), pdbio.WithWriteFS(probe)); err != nil {
		t.Fatalf("probe: %v", err)
	}
	sites := probe.Sites()

	seed := killpointSeed(t)
	t.Logf("seed=%d sites=%d", seed, sites)
	rng := rand.New(rand.NewSource(seed))
	old := []byte("stale bytes\n")
	for i := 0; i < 16; i++ {
		k := rng.Int63n(sites)
		dir := filepath.Join(base, fmt.Sprintf("i%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dir, "out.pdb")
		preExisting := i%2 == 1
		if preExisting {
			if err := os.WriteFile(target, old, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cfs := faultio.NewCrashFS(nil, k)
		err := pdbio.MergeToFile(ctx, target, paths,
			pdbio.WithWorkers(4), pdbio.WithWriteFS(cfs))
		// The total operation count is worker-independent, so a budget
		// under the probed site count always kills.
		if !errors.Is(err, faultio.ErrKilled) {
			t.Fatalf("seed=%d k=%d: err = %v, want ErrKilled", seed, k, err)
		}
		if err := checkTargetIntact(target, preExisting, old, golden); err != nil {
			t.Fatalf("seed=%d k=%d: %v", seed, k, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeToFileAbortsOnWriteError: a failure while serializing the
// merged database must abort the staged file and leave a pre-existing
// target untouched.
func TestMergeToFileAbortsOnWriteError(t *testing.T) {
	base := t.TempDir()
	paths := writeTinyInputs(t, base, 2)
	target := filepath.Join(base, "out.pdb")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A zero budget kills the very first filesystem operation — the
	// staging-file open — before a single output byte is at risk.
	cfs := faultio.NewCrashFS(nil, 0)
	err := pdbio.MergeToFile(context.Background(), target, paths, pdbio.WithWriteFS(cfs))
	if !errors.Is(err, faultio.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	if got, _ := os.ReadFile(target); string(got) != "old" {
		t.Errorf("target = %q, want old bytes", got)
	}
}
