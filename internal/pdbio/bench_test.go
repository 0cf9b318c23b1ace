package pdbio_test

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdt/internal/ductape"
	"pdt/internal/pdbio"
	"pdt/internal/workload"
)

// benchFiles lazily builds the on-disk merge workload shared by the
// benchmarks: 12 translation units over one header, each with enough
// unit-local classes that parsing dominates.
var benchFiles struct {
	once  sync.Once
	dir   string
	paths []string
}

func mergeBenchPaths(b *testing.B) []string {
	b.Helper()
	benchFiles.once.Do(func() {
		dir, err := os.MkdirTemp("", "pdbio-bench")
		if err != nil {
			b.Fatal(err)
		}
		benchFiles.dir = dir
		// Dedup-heavy shape: most of each unit is shared template
		// instantiations (the paper's duplicate-elimination scenario),
		// so per-file parsing dominates and the merged result stays
		// small.
		hdr, units := workload.GenMergeUnits(12, 40, 8)
		for i, unit := range units {
			files := map[string]string{"shared.h": hdr, "unit.cpp": unit}
			db := compileUnit(b, files, "unit.cpp")
			path := filepath.Join(dir, "unit"+string(rune('a'+i))+".pdb")
			if err := os.WriteFile(path, []byte(pdbText(b, db)), 0o644); err != nil {
				b.Fatal(err)
			}
			benchFiles.paths = append(benchFiles.paths, path)
		}
	})
	if benchFiles.paths == nil {
		b.Fatal("bench workload setup failed earlier")
	}
	return benchFiles.paths
}

// BenchmarkMergeSequential is the old pdbmerge pipeline: load every
// input one after another, then fold left-to-right.
func BenchmarkMergeSequential(b *testing.B) {
	paths := mergeBenchPaths(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbs := make([]*ductape.PDB, 0, len(paths))
		for _, p := range paths {
			db, err := ductape.ReadFile(p)
			if err != nil {
				b.Fatal(err)
			}
			dbs = append(dbs, db)
		}
		merged := ductape.Merge(dbs...)
		if err := merged.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeParallel is the pdbio pipeline over the same files:
// concurrent loading plus the linear fold.
func BenchmarkMergeParallel(b *testing.B) {
	paths := mergeBenchPaths(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pdbio.MergeFiles(ctx, io.Discard, paths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadSequential / BenchmarkReadParallel isolate the chunked
// reader on one large concatenated database.
func readBenchText(b *testing.B) string {
	b.Helper()
	paths := mergeBenchPaths(b)
	ctx := context.Background()
	dbs, err := pdbio.LoadAll(ctx, paths)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := pdbio.Merge(ctx, dbs)
	if err != nil {
		b.Fatal(err)
	}
	return pdbText(b, merged)
}

func BenchmarkReadSequential(b *testing.B) {
	text := readBenchText(b)
	ctx := context.Background()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdbio.Read(ctx, strings.NewReader(text),
			pdbio.WithWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadParallel(b *testing.B) {
	text := readBenchText(b)
	ctx := context.Background()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdbio.Read(ctx, strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
