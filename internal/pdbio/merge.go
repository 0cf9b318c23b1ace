package pdbio

import (
	"context"
	"errors"
	"io"

	"pdt/internal/ductape"
	"pdt/internal/durable"
)

// Merge combines the databases with one left-to-right ductape.Merge
// fold. The fold is linear in the total item count, so it needs no
// worker pool: the parallelism of the pipeline lives in LoadAll.
func Merge(ctx context.Context, dbs []*ductape.PDB, opts ...Option) (*ductape.PDB, error) {
	cfg := newConfig(opts)
	sp := cfg.startSpan("merge")
	defer sp.End()
	sp.AddItems(int64(len(dbs)))
	if len(dbs) == 0 {
		return nil, errors.New("no databases to merge")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ductape.Merge(dbs...), nil
}

// MergeFiles loads every input concurrently, merges the databases, and
// writes the merged database to w — the whole pdbmerge pipeline
// behind one call.
func MergeFiles(ctx context.Context, w io.Writer, paths []string, opts ...Option) error {
	merged, cfg, err := loadAndMerge(ctx, paths, opts)
	if err != nil {
		return err
	}
	ws := cfg.startSpan("write")
	defer ws.End()
	return cfg.writeMerged(merged, w)
}

// MergeToFile runs the whole pdbmerge pipeline with crash-consistent
// output: load every input concurrently, merge them, and atomically
// replace path with the result — staged to a same-directory temp
// file, fsynced, renamed over the target, directory fsynced. At every
// write site a crash leaves path holding nothing, the previous bytes,
// or the complete new bytes, never a prefix; the kill-point property
// tests iterate a CrashFS over every site to prove it.
func MergeToFile(ctx context.Context, path string, inputs []string, opts ...Option) error {
	merged, cfg, err := loadAndMerge(ctx, inputs, opts)
	if err != nil {
		return err
	}
	ws := cfg.startSpan("write")
	defer ws.End()
	w, err := durable.CreateFS(cfg.durableFS(), path)
	if err != nil {
		return err
	}
	if err := cfg.writeMerged(merged, w); err != nil {
		w.Abort()
		return err
	}
	// The durable child span isolates the crash-consistency cost —
	// fsync, atomic rename, directory fsync — from the serialization.
	ds := ws.Start("durable")
	defer ds.End()
	return w.Close()
}

// loadAndMerge is the shared front half of MergeFiles and MergeToFile.
func loadAndMerge(ctx context.Context, paths []string, opts []Option) (*ductape.PDB, config, error) {
	cfg := newConfig(opts)
	if len(paths) == 0 {
		return nil, cfg, errors.New("no input files")
	}
	dbs, err := LoadAll(ctx, paths, opts...)
	if err != nil {
		return nil, cfg, err
	}
	merged, err := Merge(ctx, dbs, opts...)
	return merged, cfg, err
}
