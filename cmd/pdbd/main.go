// pdbd is the resident PDB service: it loads and merges a corpus of
// program databases once, then answers graph queries, lint findings,
// tree listings, and HTML documentation pages over versioned HTTP
// endpoints for many concurrent clients — the daemon face of the same
// corpus API (internal/corpus) the command-line tools use, so every
// response body is byte-identical to the corresponding CLI output.
//
// Usage:
//
//	pdbd [-addr :7245] [-cache-dir dir] [-mem-entries N] [-html-src]
//	     [-j N] [-strict] [-lenient] [-quarantine dir] [-retry N]
//	     [-metrics file|-] [-trace]
//	     file.pdb [file.pdb ...]
//
// Endpoints (all JSON errors, schema_version-stamped):
//
//	GET  /v1/healthz                       readiness: 200 ok once the corpus
//	                                       is loaded, 503 loading/reloading
//	GET  /v1/livez                         liveness: 200 whenever the
//	                                       process serves HTTP at all
//	GET  /v1/metrics                       obs counters/spans snapshot
//	GET  /v1/lookup?node=SPEC              resolve node specs
//	GET  /v1/query/{cmd}                   deps, rdeps, somepath, reaches,
//	                                       whatinputs, affected, nodes
//	GET  /v1/lint?passes=a,b&changed=f.cc  analysis findings
//	GET  /v1/tree?files&classes&calls      hierarchy trees
//	GET  /v1/html/{page}                   documentation pages
//	POST /v1/reload                        re-open the corpus, invalidate
//	                                       only affected cache entries
//	POST /v1/profile/ingest                streamed TAU profile events
//	                                       (taurun -stream)
//	GET  /v1/profile                       live aggregated profile JSON
//	GET  /v1/profile/html                  live dashboard fragment
//
// SIGHUP triggers the same reload as POST /v1/reload; SIGINT/SIGTERM
// shut down gracefully. With -cache-dir, responses and lint findings
// persist across restarts in content-addressed journals.
//
// Exit codes: 0 clean shutdown, 3 startup or serve failure.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pdt/internal/cliutil"
	"pdt/internal/pdbd"
)

func main() {
	t := cliutil.New("pdbd",
		"pdbd [-addr :7245] [-cache-dir dir] [-mem-entries N] [-html-src] file.pdb [file.pdb ...]")
	addr := t.Flags.String("addr", ":7245", "listen address")
	cacheDir := t.Flags.String("cache-dir", "", "disk cache directory for responses and lint findings (default: memory-only)")
	memEntries := t.Flags.Int("mem-entries", 0, "in-memory response cache capacity in entries (0 = 4096)")
	htmlSrc := t.Flags.Bool("html-src", false, "include source listings in /v1/html pages")
	cf := t.CorpusFlags().WithStrict()
	t.ObsFlags()
	t.Parse(os.Args[1:], 1, -1)

	cfg := pdbd.Config{
		Paths:      t.Flags.Args(),
		Corpus:     cf.Options(),
		CacheDir:   *cacheDir,
		MemEntries: *memEntries,
		HTMLSource: *htmlSrc,
		Metrics:    t.Obs(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Listen BEFORE loading: a large corpus can take a while to merge,
	// and orchestrators probe the port as soon as the process starts.
	// The deferred server answers /v1/livez 200 and /v1/healthz 503
	// "loading" until the corpus lands, then flips ready.
	srv, err := pdbd.NewDeferred(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		t.Fatalf("%v", err)
	}
	fmt.Fprintf(t.Stderr, "pdbd: listening on %s; loading %d input(s)\n", ln.Addr(), len(cfg.Paths))

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			sum, err := srv.Reload(context.Background())
			if err != nil {
				fmt.Fprintf(t.Stderr, "pdbd: reload failed: %v\n", err)
				continue
			}
			fmt.Fprintf(t.Stderr, "pdbd: reloaded (fingerprint %.12s, %d changed units, cache carried %d dropped %d)\n",
				sum.Fingerprint, len(sum.ChangedUnits), sum.CacheCarried, sum.CacheDropped)
		}
	}()

	// The hardened server: header/read/write/idle timeouts so one slow
	// client (slowloris) can't pin connections forever. The ingest body
	// cap lives in the handler (http.MaxBytesReader).
	hs := srv.HTTPServer()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	if err := srv.LoadCorpus(ctx); err != nil {
		_ = hs.Close()
		t.Fatalf("%v", err)
	}
	fmt.Fprintf(t.Stderr, "pdbd: ready (fingerprint %.12s)\n", srv.Fingerprint())

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		fmt.Fprintln(t.Stderr, "pdbd: shut down")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("%v", err)
		}
	}
	t.FlushObs()
	t.Exit(cf.Exit(cliutil.ExitOK))
}
