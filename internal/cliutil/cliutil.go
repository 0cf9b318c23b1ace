// Package cliutil centralizes the flag and exit-code conventions the
// PDB command-line tools share, so -o, -j, -format, and the resilient
// ingestion flags (-lenient, -quarantine, -retry) behave identically
// across pdbmerge, pdbconv, pdbtree, pdblint, and friends.
//
// The exit-code convention follows pdblint: 0 is success, codes 1 and
// 2 are reserved for tool-specific findings severities, 3 means a
// usage or I/O failure, 4 means the run completed but the lenient
// reader recovered past malformed input (success with caveats — the
// output omits whatever was skipped), and 5 means another process
// holds the output lock (nothing was written; retry when it exits).
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pdt/internal/corpus"
	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/pdbio"
)

// Exit codes shared by the tools.
const (
	ExitOK        = 0
	ExitUsage     = 3
	ExitRecovered = 4 // completed, but lenient ingestion recovered past damage
	ExitLocked    = 5 // another process holds the output lock; nothing was written
)

// Tool carries one command-line tool's name, usage line, flag set, and
// exit plumbing. Stderr and Exit are swappable for tests.
type Tool struct {
	Name      string
	UsageLine string
	Flags     *flag.FlagSet
	Stderr    io.Writer
	Exit      func(int)

	format  *string
	allowed []string

	metricsPath *string
	trace       *bool
	obs         *obs.Metrics
}

// New builds a Tool around a fresh flag set.
func New(name, usageLine string) *Tool {
	t := &Tool{
		Name:      name,
		UsageLine: usageLine,
		Flags:     flag.NewFlagSet(name, flag.ContinueOnError),
		Stderr:    os.Stderr,
		Exit:      os.Exit,
	}
	t.Flags.Usage = func() {
		fmt.Fprintf(t.Stderr, "usage: %s\n", t.UsageLine)
		t.Flags.PrintDefaults()
	}
	return t
}

// OutFlag registers the standard -o output flag.
func (t *Tool) OutFlag() *string {
	return t.Flags.String("o", "", "output file (default: stdout)")
}

// WorkersFlag registers the standard -j parallelism flag, consumed by
// the pdbio load and merge paths. -workers is the spelled-out alias
// (both names bind one value; the last one parsed wins).
func (t *Tool) WorkersFlag() *int {
	n := t.Flags.Int("j", 0, "parallel workers (0 = one per CPU, 1 = sequential)")
	t.Flags.IntVar(n, "workers", 0, "alias for -j")
	return n
}

// FormatFlag registers the standard -format flag restricted to the
// given values; the first is the default. Parse validates the choice.
func (t *Tool) FormatFlag(allowed ...string) *string {
	t.allowed = allowed
	usage := "output format: " + allowed[0]
	for _, a := range allowed[1:] {
		usage += " or " + a
	}
	t.format = t.Flags.String("format", allowed[0], usage)
	return t.format
}

// ObsFlags registers the shared self-instrumentation flags: -metrics
// writes a JSON snapshot of the run's stage spans, counters, and
// worker-pool utilization, and -trace prints the human-readable span
// tree. Both go to standard error when the -metrics argument is "-"
// (or for -trace always), keeping standard output reserved for the
// tool's own report.
func (t *Tool) ObsFlags() {
	t.metricsPath = t.Flags.String("metrics", "",
		"write a JSON metrics snapshot to this file (- = standard error)")
	t.trace = t.Flags.Bool("trace", false,
		"print the stage-span trace to standard error on exit")
}

// Obs returns the metrics registry implied by the observability flags:
// nil (the no-op instrument) unless -metrics or -trace was given.
// Call after Parse.
func (t *Tool) Obs() *obs.Metrics {
	if t.obs == nil && t.metricsPath != nil && (*t.metricsPath != "" || *t.trace) {
		t.obs = obs.New(t.Name)
	}
	return t.obs
}

// FlushObs writes the trace and metrics snapshot requested by the
// flags. It is a no-op when neither flag was given, so tools call it
// unconditionally before exiting.
func (t *Tool) FlushObs() {
	if t.Obs() == nil {
		return
	}
	if *t.trace {
		t.obs.WriteText(t.Stderr)
	}
	if *t.metricsPath == "" {
		return
	}
	var err error
	if *t.metricsPath == "-" {
		err = t.obs.WriteJSON(t.Stderr)
	} else {
		err = WriteOutput(*t.metricsPath, t.obs.WriteJSON)
	}
	if err != nil {
		t.Fatalf("writing metrics: %v", err)
	}
}

// Parse parses args, validates any -format choice, and enforces an
// argument-count range (maxArgs < 0 means unlimited). Violations print
// the usage line and exit with ExitUsage.
func (t *Tool) Parse(args []string, minArgs, maxArgs int) {
	t.Flags.SetOutput(t.Stderr)
	if err := t.Flags.Parse(args); err != nil {
		t.Exit(ExitUsage)
		return
	}
	if t.format != nil {
		ok := false
		for _, a := range t.allowed {
			ok = ok || *t.format == a
		}
		if !ok {
			t.Fatalf("unknown format %q", *t.format)
			return
		}
	}
	n := t.Flags.NArg()
	if n < minArgs || (maxArgs >= 0 && n > maxArgs) {
		t.Usage()
	}
}

// Usage prints the usage line and exits with ExitUsage.
func (t *Tool) Usage() {
	fmt.Fprintf(t.Stderr, "usage: %s\n", t.UsageLine)
	t.Exit(ExitUsage)
}

// Fatalf reports a failure as "name: message" and exits with
// ExitUsage, the shared usage/I-O failure code.
func (t *Tool) Fatalf(format string, args ...interface{}) {
	fmt.Fprintf(t.Stderr, "%s: %s\n", t.Name, fmt.Sprintf(format, args...))
	t.Exit(ExitUsage)
}

// Create is the file-creation seam WithOutput and WriteOutput use;
// tests override it to exercise write/close failure paths. The
// default is a crash-consistent durable.Create: bytes are staged to a
// same-directory temp file and only an error-free Close publishes
// them (fsync, atomic rename, directory fsync), so a crash or full
// disk never leaves a torn file at the final path.
var Create = func(path string) (io.WriteCloser, error) {
	return durable.Create(path)
}

// WithOutput runs fn against the -o destination: stdout when path is
// empty, otherwise a crash-consistently created file (see Create)
// that is committed afterwards — reporting the commit error, so a
// full disk is not silent, and aborting the staged bytes when fn
// fails so existing output is never disturbed.
func (t *Tool) WithOutput(path string, fn func(io.Writer) error) error {
	return WriteOutput(path, fn)
}

// WriteOutput is the package-level form of Tool.WithOutput for tools
// that don't build a Tool (cxxparse, taurun): fn writes to stdout
// when path is empty, else through the Create seam with
// commit-on-success / abort-on-error semantics.
func WriteOutput(path string, fn func(io.Writer) error) error {
	if path == "" {
		return fn(os.Stdout)
	}
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		// Prefer a clean abort (durable writers discard their staging
		// file and leave the target untouched); close is the fallback
		// for seam overrides that are plain files.
		if a, ok := f.(interface{ Abort() error }); ok {
			a.Abort()
		} else {
			f.Close()
		}
		return err
	}
	return f.Close()
}

// Resilience carries the shared resilient-ingestion flags (-lenient,
// -quarantine, -retry, -retry-backoff) and the stats they feed, so
// every tool wires them identically: register with ResilienceFlags,
// pass Options() to the pdbio load, and route the final status through
// Exit to report "completed with recoveries" as ExitRecovered.
type Resilience struct {
	lenient    *bool
	quarantine *string
	retries    *int
	backoff    *time.Duration
	stats      pdbio.Stats
}

// ResilienceFlags registers the resilient-ingestion flags on the tool.
func (t *Tool) ResilienceFlags() *Resilience {
	r := &Resilience{}
	r.lenient = t.Flags.Bool("lenient", false,
		"recover past malformed item blocks instead of failing (exit 4 when anything was skipped)")
	r.quarantine = t.Flags.String("quarantine", "",
		"with -lenient, dump skipped spans into this directory")
	r.retries = t.Flags.Int("retry", 0,
		"retry transient I/O failures up to this many extra attempts per file")
	r.backoff = t.Flags.Duration("retry-backoff", 50*time.Millisecond,
		"initial sleep between retries (doubles each attempt)")
	return r
}

// Lenient reports whether -lenient was given. Call after Parse.
func (r *Resilience) Lenient() bool { return *r.lenient }

// Stats exposes the resilience counters the loads accumulate.
func (r *Resilience) Stats() *pdbio.Stats { return &r.stats }

// Options translates the parsed flags into pdbio load options. The
// returned slice always wires the shared Stats, so Exit sees what the
// loads recovered. Call after Parse.
func (r *Resilience) Options() []pdbio.Option {
	opts := []pdbio.Option{pdbio.WithStats(&r.stats)}
	if *r.lenient {
		opts = append(opts, pdbio.WithLenient())
	}
	if *r.quarantine != "" {
		opts = append(opts, pdbio.WithQuarantine(*r.quarantine))
	}
	if *r.retries > 0 {
		opts = append(opts, pdbio.WithRetry(*r.retries, *r.backoff))
	}
	return opts
}

// Incremental carries the shared incremental-analysis flags: -changed
// names the files a diff touched, -findings-db points at the
// content-addressed findings cache directory. pdblint uses both to
// splice cached findings; pdbquery accepts -changed for its affected
// query. Registered together so the two tools spell them identically.
type Incremental struct {
	changed    *string
	findingsDB *string
}

// IncrementalFlags registers -changed and -findings-db on the tool.
func (t *Tool) IncrementalFlags() *Incremental {
	i := &Incremental{}
	i.changed = t.Flags.String("changed", "",
		"comma-separated changed source files (reported as the affected set)")
	i.findingsDB = t.Flags.String("findings-db", "",
		"findings cache directory; when set, runs incrementally against it")
	return i
}

// Enabled reports whether -findings-db was given. Call after Parse.
func (i *Incremental) Enabled() bool { return *i.findingsDB != "" }

// Dir returns the -findings-db directory.
func (i *Incremental) Dir() string { return *i.findingsDB }

// Changed returns the parsed -changed list (empty-element tolerant).
func (i *Incremental) Changed() []string {
	var out []string
	for _, f := range strings.Split(*i.changed, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Exit folds the recovery status into a tool's exit code: a clean run
// (base ExitOK) that recovered past damage becomes ExitRecovered, and
// any other base code — findings severities, usage failures — wins
// unchanged.
func (r *Resilience) Exit(base int) int {
	if base == ExitOK && r.stats.Recovered.Load() > 0 {
		return ExitRecovered
	}
	return base
}

// CorpusFlags bundles the corpus-loading flag groups every PDB-reading
// tool shares — workers (-j/-workers) and the resilience group — into
// one registration whose parsed values map 1:1 onto corpus.Options.
// This is the single spelling point: a flag spelled here is spelled
// identically on every tool and on the pdbd daemon config.
type CorpusFlags struct {
	tool    *Tool
	workers *int
	strict  *bool
	res     *Resilience
}

// CorpusFlags registers the shared corpus-loading flags on the tool:
// -j/-workers plus the resilience group (-lenient, -quarantine,
// -retry, -retry-backoff).
func (t *Tool) CorpusFlags() *CorpusFlags {
	return &CorpusFlags{
		tool:    t,
		workers: t.WorkersFlag(),
		res:     t.ResilienceFlags(),
	}
}

// WithStrict additionally registers -strict (input validation) for
// tools that expose it.
func (c *CorpusFlags) WithStrict() *CorpusFlags {
	c.strict = c.tool.Flags.Bool("strict", false,
		"validate the referential integrity of every input database")
	return c
}

// Options translates the parsed flags into a corpus.Options, wiring in
// the tool's metrics registry and the shared resilience stats. Call
// after Parse.
func (c *CorpusFlags) Options() corpus.Options {
	o := corpus.Options{
		Workers: *c.workers,
		Metrics: c.tool.Obs(),
		Stats:   c.res.Stats(),
	}
	if c.strict != nil {
		o.Strict = *c.strict
	}
	if *c.res.lenient {
		o.Lenient = true
	}
	if *c.res.quarantine != "" {
		o.Quarantine = *c.res.quarantine
	}
	if *c.res.retries > 0 {
		o.Retries = *c.res.retries
		o.RetryBackoff = *c.res.backoff
	}
	return o
}

// Resilience exposes the embedded resilience flag group (for Exit).
func (c *CorpusFlags) Resilience() *Resilience { return c.res }

// Exit folds the recovery status into the tool's exit code, as
// Resilience.Exit does.
func (c *CorpusFlags) Exit(base int) int { return c.res.Exit(base) }
