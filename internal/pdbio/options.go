// Package pdbio is the concurrent ingestion and merge engine for
// program databases — the scalable front door to the paper's §3.2
// whole-program workflow, where one PDB per compilation unit is merged
// into a single program database. Template-heavy codebases produce
// hundreds of large per-unit PDBs:
//
//   - LoadAll parses files concurrently, one file per worker; each
//     file is read by the sequential pdb reader (Load, Read).
//   - Merge combines N databases with one linear left-to-right
//     ductape.Merge fold.
//
// All entry points take a context for cancellation and a variadic
// option list (WithWorkers, WithStrictValidation, WithLenient,
// WithMetrics, ...).
// Multi-file failures use keep-going semantics: every input is
// attempted and the returned error aggregates one %w-wrapped error per
// failed input.
package pdbio

import (
	"io"
	"io/fs"
	"runtime"
	"sync/atomic"
	"time"

	"pdt/internal/ductape"
	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/pdb"
)

// Option configures Load, LoadAll, Read, Merge, and MergeFiles.
type Option func(*config)

// Format selects a serialization encoding for written output. Reads
// never need one: every reader auto-detects the encoding from the
// stream's first bytes.
type Format int

const (
	// FormatASCII is the line-oriented "<PDB 1.0>" text encoding — the
	// default, and the interchange form every tool accepts.
	FormatASCII Format = iota
	// FormatBinary is the PDTB binary container: interned strings,
	// varint-packed sections, per-section checksums. Same model,
	// smaller and faster to parse.
	FormatBinary
)

type config struct {
	workers      int
	maxLineBytes int
	strict       bool
	metrics      *obs.Metrics
	parent       *obs.Span // enclosing stage span, nil at the root

	// Resilient-ingestion knobs (see also internal/pdb's lenient mode).
	lenient    bool
	quarantine string
	retries    int
	backoff    time.Duration
	fsys       fs.FS
	stats      *Stats

	// Crash-consistency seam (internal/durable).
	writeFS durable.FS

	// Output encoding for MergeFiles / MergeToFile.
	format Format
}

// writeMerged serializes db in the configured output format.
func (c config) writeMerged(db *ductape.PDB, w io.Writer) error {
	if c.format == FormatBinary {
		return db.WriteBinary(w)
	}
	return db.Write(w)
}

// durableFS resolves the filesystem all durable writes go through:
// the real one by default, or the WithWriteFS override (the
// kill-point seam internal/faultio's CrashFS plugs into).
func (c config) durableFS() durable.FS {
	if c.writeFS != nil {
		return c.writeFS
	}
	return durable.OS
}

// Stats accumulates the resilience counters of one or more Load calls:
// how many malformed spans the lenient reader recovered past, how many
// raw lines those spans dropped, and how many retry attempts transient
// I/O errors cost. All fields are atomics, so one Stats may be shared
// across a concurrent LoadAll. The same counts flow into the metrics
// registry (WithMetrics) as load.recovered, load.dropped_lines, and
// load.retries.
type Stats struct {
	Recovered    atomic.Int64 // malformed spans skipped and recovered past
	DroppedLines atomic.Int64 // raw lines discarded inside those spans
	Retries      atomic.Int64 // extra attempts made by WithRetry
}

// startSpan opens a stage span under the enclosing span when there is
// one, else at the registry root. With metrics disabled both paths
// return the nil no-op span.
func (c config) startSpan(name string) *obs.Span {
	if c.parent != nil {
		return c.parent.Start(name)
	}
	return c.metrics.StartSpan(name)
}

// under returns a copy of the config whose spans nest below sp.
func (c config) under(sp *obs.Span) config {
	c.parent = sp
	return c
}

func newConfig(opts []Option) config {
	cfg := config{maxLineBytes: pdb.DefaultMaxLineBytes}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// workerCount resolves the configured worker count: 0 (the default)
// means one worker per available CPU.
func (c config) workerCount() int {
	if c.workers > 0 {
		return c.workers
	}
	return runtime.GOMAXPROCS(0)
}

// WithWorkers sets the number of files LoadAll (and so MergeFiles)
// parses concurrently. n <= 0 selects one worker per available CPU. A
// single file is always parsed sequentially.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithFormat selects the encoding MergeFiles and MergeToFile use for
// the merged output: FormatASCII (the default) or FormatBinary. Load,
// LoadAll, and Read are unaffected — they detect the encoding of each
// input from its first bytes, so ASCII and binary corpora mix freely.
func WithFormat(f Format) Option {
	return func(c *config) { c.format = f }
}

// WithStrictValidation makes Load and LoadAll run the referential
// integrity checks of pdb.Validate on every database after parsing and
// fail if any check does.
func WithStrictValidation() Option {
	return func(c *config) { c.strict = true }
}

// WithMetrics routes stage spans, item/byte counts, and worker-pool
// utilization samples into m as the pipelines run. A nil m (the
// default) disables instrumentation entirely: the hot paths take no
// locks and never read the clock.
func WithMetrics(m *obs.Metrics) Option {
	return func(c *config) { c.metrics = m }
}

// WithMaxLineBytes sets the longest input line the reader accepts.
// Lines beyond the limit abort the parse with an error naming the
// offending line (strict mode) or are skipped with a diagnostic
// (lenient mode). n <= 0 keeps the 4 MiB default.
func WithMaxLineBytes(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxLineBytes = n
		}
	}
}

// WithLenient switches Load and LoadAll into the recovering parse mode
// of pdb.ReadLenient: malformed item blocks are skipped with structured
// diagnostics instead of aborting the load, and the diagnostics ride on
// the database (ductape's Raw().Recovered) for the analysis layer.
// Recovered/dropped counts flow into WithStats and the metrics
// registry. Each lenient file is parsed by the sequential recovering
// reader; cross-file parallelism in LoadAll is unaffected.
func WithLenient() Option {
	return func(c *config) { c.lenient = true }
}

// WithQuarantine makes lenient loads dump every skipped span into dir
// (one file per span, named <input>.<start>-<end>.skipped) for
// post-mortem inspection. The dir is created on first use. Implies
// nothing in strict mode.
func WithQuarantine(dir string) Option {
	return func(c *config) { c.quarantine = dir }
}

// WithRetry makes Load and LoadAll retry transient I/O failures —
// errors reporting Temporary() == true (the net.Error convention, which
// injected faults from internal/faultio follow) or wrapping
// io.ErrUnexpectedEOF / EINTR / EAGAIN / EIO, or the
// connection-lifecycle errnos a daemon restart surfaces (ECONNRESET /
// ECONNREFUSED / EPIPE) — up to n extra attempts
// per file, sleeping backoff before the first retry and doubling it
// each attempt. Parse failures are never retried.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *config) {
		if n > 0 {
			c.retries = n
			c.backoff = backoff
		}
	}
}

// WithFS reroutes Load and LoadAll file opens through fsys instead of
// the OS filesystem — the seam the fault-injection harness
// (internal/faultio) plugs into, and the hook for future non-POSIX
// backends. Paths must be valid fs.FS paths.
func WithFS(fsys fs.FS) Option {
	return func(c *config) { c.fsys = fsys }
}

// WithStats accumulates resilience counters (recoveries, dropped lines,
// retries) into s as loads run. A nil s disables the accounting.
func WithStats(s *Stats) Option {
	return func(c *config) { c.stats = s }
}

// WithWriteFS reroutes MergeToFile's durable output write through
// fsys instead of the real filesystem. It is the kill-point seam:
// internal/faultio's CrashFS implements durable.FS to cut the write
// stream at a chosen byte or operation.
func WithWriteFS(fsys durable.FS) Option {
	return func(c *config) { c.writeFS = fsys }
}
