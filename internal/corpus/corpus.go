// Package corpus is the shared front door to a loaded program-database
// corpus: one Open call loads (and, for several inputs, merges) the
// databases through the pdbio engine, and the resulting Corpus answers
// the questions every consumer asks — graph queries, lint findings,
// hierarchy trees, HTML pages, content fingerprints — through one API.
//
// The CLIs (pdbquery, pdblint, pdbtree, pdbhtml) and the pdbd daemon
// are both thin shells over this package, so a daemon endpoint and the
// corresponding command-line invocation produce byte-identical output
// by construction: they call the same methods and the same renderers.
//
// Options maps 1:1 onto the shared CLI flags (cliutil) and onto the
// pdbd configuration, so "the same corpus, opened the same way" means
// the same Options value on either side.
package corpus

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdt/internal/ductape"
	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/pdbio"
	"pdt/internal/query"
)

// Options configures Open. The zero value is a plain strict load with
// one worker per CPU and no instrumentation. Every field corresponds
// to exactly one shared CLI flag (noted per field) and one pdbd config
// knob.
type Options struct {
	Workers      int           // -j / -workers
	Strict       bool          // -strict (referential integrity validation)
	Lenient      bool          // -lenient
	Quarantine   string        // -quarantine
	Retries      int           // -retry
	RetryBackoff time.Duration // -retry-backoff

	// Metrics receives stage spans and counters for the load and every
	// later derived-view build. Nil disables instrumentation.
	Metrics *obs.Metrics
	// Stats accumulates resilience counters shared with the caller's
	// exit-code logic (cliutil.Resilience). Optional.
	Stats *pdbio.Stats
}

// pdbioOptions translates the option set for the pdbio engine.
func (o Options) pdbioOptions() []pdbio.Option {
	opts := []pdbio.Option{
		pdbio.WithWorkers(o.Workers),
		pdbio.WithMetrics(o.Metrics),
	}
	if o.Strict {
		opts = append(opts, pdbio.WithStrictValidation())
	}
	if o.Lenient {
		opts = append(opts, pdbio.WithLenient())
	}
	if o.Quarantine != "" {
		opts = append(opts, pdbio.WithQuarantine(o.Quarantine))
	}
	if o.Retries > 0 {
		opts = append(opts, pdbio.WithRetry(o.Retries, o.RetryBackoff))
	}
	if o.Stats != nil {
		opts = append(opts, pdbio.WithStats(o.Stats))
	}
	return opts
}

// Corpus is one loaded (and merged) program database plus its lazily
// built derived views: the dependency graph, the per-unit content
// fingerprints, and the corpus-wide fingerprint digest. A Corpus is
// immutable once opened and safe for concurrent use; reloading means
// opening a new Corpus and swapping the pointer.
type Corpus struct {
	paths []string
	opts  Options
	db    *ductape.PDB

	mu    sync.Mutex
	graph *query.Graph

	fpOnce      sync.Once
	fps         *query.Fingerprints
	fingerprint string
}

// Open loads the databases at paths and merges them into one Corpus.
// A single path is a plain load; several paths run the pdbio merge, so
// the result is byte-identical to pdbmerge over the same inputs.
func Open(ctx context.Context, paths []string, opts Options) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no input paths")
	}
	io := opts.pdbioOptions()
	var db *ductape.PDB
	var err error
	if len(paths) == 1 {
		db, err = pdbio.Load(ctx, paths[0], io...)
	} else {
		var dbs []*ductape.PDB
		dbs, err = pdbio.LoadAll(ctx, paths, io...)
		if err == nil {
			db, err = pdbio.Merge(ctx, dbs, io...)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Corpus{paths: append([]string(nil), paths...), opts: opts, db: db}, nil
}

// FromDB wraps an already built database in a Corpus — the seam for
// tests and in-process embedders that compile their corpus directly.
func FromDB(db *ductape.PDB, opts Options) *Corpus {
	return &Corpus{opts: opts, db: db}
}

// DB returns the underlying merged database.
func (c *Corpus) DB() *ductape.PDB { return c.db }

// Paths returns the input paths the corpus was opened from (nil for
// FromDB corpora).
func (c *Corpus) Paths() []string { return c.paths }

// Graph returns the dependency graph, building it on first use. The
// build honors ctx: a canceled caller gets ctx.Err() and leaves the
// graph unbuilt, so the next caller retries — a disconnected client
// never leaves a half-built graph behind, and never leaves the build
// running.
func (c *Corpus) Graph(ctx context.Context) (*query.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.graph != nil {
		return c.graph, nil
	}
	sp := c.opts.Metrics.StartSpan("graph.build")
	g, err := query.NewContext(ctx, c.db)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.AddItems(int64(g.Len()))
	sp.End()
	c.opts.Metrics.Counter("query.nodes").Add(int64(g.Len()))
	c.opts.Metrics.Counter("query.edges").Add(int64(g.EdgeCount()))
	c.graph = g
	return g, nil
}

// Fingerprints returns the per-unit, per-section content fingerprints,
// computing them on first use.
func (c *Corpus) Fingerprints() *query.Fingerprints {
	c.fpOnce.Do(func() {
		sp := c.opts.Metrics.StartSpan("fingerprint")
		c.fps = query.Fingerprint(c.db)
		sp.AddItems(int64(len(c.fps.Units())))
		sp.End()

		parts := []string{"pdt-corpus-fingerprint v1"}
		for _, unit := range c.fps.Units() {
			secs := c.fps.Unit(unit)
			parts = append(parts, unit)
			for _, sec := range query.Sections() {
				if d, ok := secs[sec]; ok {
					parts = append(parts, string(sec), d)
				}
			}
		}
		c.fingerprint = durable.KeyOf(parts...)
	})
	return c.fps
}

// Fingerprint returns the corpus-wide content digest: a single
// content-addressed key over every unit's section fingerprints.
// Two corpora with identical content fingerprint identically however
// they were produced (merge order, item numbering); any content change
// changes the digest. It is the cache epoch the pdbd result cache keys
// responses under.
func (c *Corpus) Fingerprint() string {
	c.Fingerprints()
	return c.fingerprint
}
