package pdbio

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdt/internal/ductape"
	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/pdb"
)

// Load reads the PDB file at path and builds the DUCTAPE object graph.
// With WithLenient it recovers past malformed spans instead of failing;
// with WithRetry it retries transient I/O errors.
func Load(ctx context.Context, path string, opts ...Option) (*ductape.PDB, error) {
	cfg := newConfig(opts)
	return load(ctx, path, cfg)
}

// load runs loadOnce under the configured retry policy: transient I/O
// failures are retried with doubling backoff, everything else (parse
// errors, cancellation) returns immediately.
func load(ctx context.Context, path string, cfg config) (*ductape.PDB, error) {
	backoff := cfg.backoff
	for attempt := 0; ; attempt++ {
		db, err := loadOnce(ctx, path, cfg)
		if err == nil || attempt >= cfg.retries || !retryable(err) || ctx.Err() != nil {
			return db, err
		}
		cfg.metrics.Counter("load.retries").Add(1)
		if cfg.stats != nil {
			cfg.stats.Retries.Add(1)
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
	}
}

// Retryable reports whether err is a transient failure worth retrying
// under this package's classification — the shared retry discipline:
// the loader's WithRetry policy and the taustream emitter's
// send-with-backoff both consult it, so "what is transient" has one
// answer toolkit-wide.
func Retryable(err error) bool { return retryable(err) }

// retryable classifies an error as a transient failure worth
// retrying: it reports Temporary() == true (the net.Error convention,
// followed by faultio's injected errors), or wraps one of the classic
// transient read failures, or one of the connection-lifecycle errnos a
// daemon restart surfaces to its clients — ECONNRESET, ECONNREFUSED,
// EPIPE — which syscall.Errno.Temporary() does not report but which
// resolve as soon as the peer is back. A false Temporary() therefore
// cannot veto the errno list (syscall.Errno implements Temporary, so
// an As-then-return would short-circuit every errno to its own
// conservative answer). Format/parse errors never match.
func retryable(err error) bool {
	var te interface{ Temporary() bool }
	if errors.As(err, &te) && te.Temporary() {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}

func loadOnce(ctx context.Context, path string, cfg config) (*ductape.PDB, error) {
	f, err := cfg.open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var raw *pdb.PDB
	if cfg.lenient {
		raw, err = cfg.readLenient(ctx, f, path)
	} else {
		raw, err = readRaw(ctx, f, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.strict {
		vs := cfg.startSpan("validate")
		verrs := raw.Validate()
		vs.End()
		if len(verrs) > 0 {
			return nil, fmt.Errorf("integrity: %w", errors.Join(verrs...))
		}
	}
	cfg.metrics.Counter("files.loaded").Add(1)
	return ductape.FromRaw(raw), nil
}

// open resolves the configured filesystem: the OS by default, or the
// WithFS override (the fault-injection seam).
func (c config) open(path string) (io.ReadCloser, error) {
	if c.fsys != nil {
		return c.fsys.Open(path)
	}
	return os.Open(path)
}

// readLenient is the recovering per-file parse: pdb.ReadLenient plus
// the resilience accounting (stats, metrics counters) and the optional
// quarantine dump of every skipped span.
func (c config) readLenient(ctx context.Context, r io.Reader, path string) (*pdb.PDB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := c.startSpan("read")
	defer sp.End()
	br := bufio.NewReader(r)
	var raw *pdb.PDB
	var diags []pdb.Diagnostic
	var err error
	if prefix, _ := br.Peek(len(pdb.BinaryMagic)); pdb.IsBinaryPrefix(prefix) {
		// Binary damage diagnostics carry byte offsets and section names
		// but no skipped source lines, so the dropped-line counters stay
		// zero and there is nothing for the quarantine to dump.
		raw, diags, err = pdb.ReadBinaryLenient(br, path)
	} else {
		raw, diags, err = pdb.ReadLenient(br, c.maxLineBytes, path)
	}
	if err != nil {
		return nil, err
	}
	if len(diags) > 0 {
		var dropped int64
		for _, d := range diags {
			dropped += int64(len(d.Skipped))
		}
		c.metrics.Counter("load.recovered").Add(int64(len(diags)))
		c.metrics.Counter("load.dropped_lines").Add(dropped)
		if c.stats != nil {
			c.stats.Recovered.Add(int64(len(diags)))
			c.stats.DroppedLines.Add(dropped)
		}
		if c.quarantine != "" {
			if qerr := writeQuarantine(c.quarantine, path, diags); qerr != nil {
				return nil, fmt.Errorf("quarantine: %w", qerr)
			}
		}
	}
	sp.AddItems(int64(raw.ItemCount()))
	return raw, nil
}

// writeQuarantine dumps each skipped span to its own file in dir,
// headed by the diagnostic it was recorded under. File names are
// content-addressed — <base>.<start>-<end>.<hash>.skipped, where the
// hash covers the input path and the dump bytes — so same-named spans
// from different inputs never silently overwrite each other, and the
// writes are atomic (durable.WriteFile) so a crash never leaves a
// torn dump. Identical spans from identical inputs coalesce onto one
// file, which holds the same bytes either way.
func writeQuarantine(dir, path string, diags []pdb.Diagnostic) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range diags {
		if len(d.Skipped) == 0 {
			continue
		}
		content := "# " + d.String() + "\n" + strings.Join(d.Skipped, "\n") + "\n"
		sum := sha256.Sum256([]byte(path + "\x00" + content))
		name := fmt.Sprintf("%s.%d-%d.%s.skipped", filepath.Base(path),
			d.StartLine, d.EndLine, hex.EncodeToString(sum[:6]))
		if err := durable.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadAll reads every path concurrently. It keeps going after a
// failure: all inputs are attempted, and the returned error joins one
// %w-wrapped error per failed input (check with errors.Is/As).
// Cancellation is the exception to the joining: when the context is
// canceled the cancellation itself is returned (errors.Is
// context.Canceled / DeadlineExceeded), never folded into the per-file
// join as N spurious file errors. The databases come back in input
// order; on error the slice is nil.
func LoadAll(ctx context.Context, paths []string, opts ...Option) ([]*ductape.PDB, error) {
	cfg := newConfig(opts)
	dbs := make([]*ductape.PDB, len(paths))
	loadErrs := make([]error, len(paths))

	sp := cfg.startSpan("load")
	defer sp.End()
	sp.AddItems(int64(len(paths)))

	// The parallelism is across files: each file is parsed
	// sequentially on one worker.
	workers := min(cfg.workerCount(), len(paths))
	if workers < 1 {
		workers = 1
	}
	fileCfg := cfg.under(sp)

	pool := cfg.metrics.Pool("load")
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range paths {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wrk *obs.Worker) {
			defer wg.Done()
			for i := range next {
				t0 := wrk.Begin()
				dbs[i], loadErrs[i] = load(ctx, paths[i], fileCfg)
				wrk.End(t0, 1, 0)
			}
		}(pool.Worker(w))
	}
	wg.Wait()

	// Cancellation surfaces as cancellation, exactly once: per-file
	// context errors are excluded from the join so a canceled 1000-file
	// load does not read as 1000 file failures.
	var joined []error
	var canceled error
	for i, err := range loadErrs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled = err
		default:
			joined = append(joined, fmt.Errorf("%s: %w", paths[i], err))
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if canceled != nil {
		// A per-file cancellation without a canceled parent context
		// (e.g. an internal reader race) must still read as one.
		return nil, canceled
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return dbs, nil
}
