// Package pdbd is the resident PDB service: it loads (and, for many
// inputs, merges) a program-database corpus once, keeps it hot, and
// answers the same questions the command-line tools answer — graph
// queries, lint findings, hierarchy trees, HTML documentation pages —
// over versioned HTTP/JSON endpoints for many concurrent clients.
//
// The daemon is a thin shell over internal/corpus, exactly like the
// CLIs, so an endpoint response body is byte-identical to the
// corresponding command-line invocation by construction: both sides
// call the same renderers.
//
// Responses flow through a result cache (see cache): a sharded
// in-memory LRU with single-flight coalescing of concurrent misses,
// owned by one corpus snapshot. A reload (SIGHUP or POST /v1/reload)
// that changes the content swaps in a new snapshot with a fresh cache.
package pdbd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdt/internal/corpus"
	"pdt/internal/obs"
	"pdt/internal/schema"
	"pdt/internal/taustream"
)

// Config configures one daemon instance. Corpus holds the same
// options the CLI flags set (cliutil.CorpusFlags maps them 1:1), so
// "the daemon opened the corpus the same way" is a config equality.
type Config struct {
	// Paths are the input databases; several are merged as pdbmerge
	// would.
	Paths []string
	// Corpus is the shared load configuration.
	Corpus corpus.Options
	// CacheDir holds the lint findings journal (CacheDir/findings),
	// which makes /v1/lint incremental across reloads and restarts.
	// Empty keeps /v1/lint non-incremental.
	CacheDir string
	// MemEntries bounds the in-memory response cache (0 = 4096).
	MemEntries int
	// HTMLSource includes source listings in /v1/html pages, like
	// pdbhtml without -nosrc.
	HTMLSource bool
	// IngestMaxBytes caps one /v1/profile/ingest request body
	// (0 = DefaultIngestMaxBytes). Oversized bodies answer 400.
	IngestMaxBytes int64
	// Metrics receives the daemon's counters and spans; /v1/metrics
	// snapshots it. Nil disables instrumentation.
	Metrics *obs.Metrics
}

// state is the immutable corpus-of-record a request sees: handlers
// load it once and answer entirely from that snapshot, so a reload
// mid-request yields a consistently old or consistently new answer,
// never a mix. The result cache belongs to the snapshot and leaves
// with it.
type state struct {
	corpus      *corpus.Corpus
	fingerprint string
	cache       *cache
}

// Server is the daemon. Create with New, expose with Handler.
type Server struct {
	cfg      Config
	metrics  *obs.Metrics
	findings string // lint findings journal dir ("" = none)
	mux      *http.ServeMux

	// profile is the live TAU-stream aggregate. It outlives corpus
	// reloads on purpose: it describes instrumented program runs, not
	// the database, so a reload must not erase it.
	profile     *taustream.Aggregator
	ingestMax   int64
	profileJSON liveMemo
	profileHTML liveMemo

	st        atomic.Pointer[state] // nil until LoadCorpus completes
	reloading atomic.Bool           // true while a reload rebuild is in flight
	reloadMu  sync.Mutex            // serializes Reload; never blocks requests
}

// New opens the corpus and builds the daemon around it.
func New(ctx context.Context, cfg Config) (*Server, error) {
	s, err := NewDeferred(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.LoadCorpus(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// NewDeferred builds the daemon — handler, caches, profile aggregator —
// WITHOUT opening the corpus, so the listener can come up and answer
// health probes immediately. Until LoadCorpus completes, /v1/healthz
// reports 503 "loading" (liveness stays green on /v1/livez) and every
// corpus-backed endpoint answers 503 instead of blocking.
func NewDeferred(cfg Config) (*Server, error) {
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("pdbd: no corpus paths configured")
	}
	if cfg.MemEntries <= 0 {
		cfg.MemEntries = 4096
	}
	if cfg.Corpus.Metrics == nil {
		// Corpus-side spans and counters (loads, graph builds, lint
		// reuse) land in the daemon's registry unless routed elsewhere.
		cfg.Corpus.Metrics = cfg.Metrics
	}
	s := &Server{cfg: cfg, metrics: cfg.Metrics}
	s.profile = taustream.NewAggregator(cfg.Metrics)
	s.ingestMax = cfg.IngestMaxBytes
	if s.ingestMax <= 0 {
		s.ingestMax = DefaultIngestMaxBytes
	}

	if cfg.CacheDir != "" {
		s.findings = filepath.Join(cfg.CacheDir, "findings")
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/livez", s.handleLivez)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	s.mux.HandleFunc("GET /v1/query/{cmd}", s.handleQuery)
	s.mux.HandleFunc("GET /v1/lint", s.handleLint)
	s.mux.HandleFunc("GET /v1/tree", s.handleTree)
	s.mux.HandleFunc("GET /v1/html/{page...}", s.handleHTML)
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/profile/ingest", s.handleProfileIngest)
	s.mux.HandleFunc("GET /v1/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/profile/html", s.handleProfileHTML)
	return s, nil
}

// LoadCorpus performs the deferred initial corpus open and flips the
// daemon ready. Safe to call once after NewDeferred (New calls it for
// you).
func (s *Server) LoadCorpus(ctx context.Context) error {
	c, err := corpus.Open(ctx, s.cfg.Paths, s.cfg.Corpus)
	if err != nil {
		return err
	}
	s.st.Store(s.newState(c))
	return nil
}

// newState wraps an opened corpus in a snapshot with an empty cache.
func (s *Server) newState(c *corpus.Corpus) *state {
	return &state{corpus: c, fingerprint: c.Fingerprint(), cache: newCache(s.cfg.MemEntries, s.metrics)}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Timeout discipline for the public listener. A daemon "for millions
// of users" must bound what one slow client can hold: without a read
// timeout, a client that dribbles header bytes (slowloris) pins a
// connection — and its goroutine — forever.
const (
	// ReadHeaderTimeout bounds the wait for a request line + headers.
	ReadHeaderTimeout = 10 * time.Second
	// ReadTimeout bounds reading one full request, body included; at
	// the ingest body cap this still allows a sub-3KB/s uploader.
	ReadTimeout = 60 * time.Second
	// WriteTimeout bounds writing one response.
	WriteTimeout = 60 * time.Second
	// IdleTimeout reaps keep-alive connections parked between
	// requests.
	IdleTimeout = 120 * time.Second
)

// HTTPServer wraps the daemon handler in an http.Server carrying the
// timeout discipline above; cmd/pdbd serves through it, and tests
// assert the configuration so the unbounded-server regression cannot
// return.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Profile returns the live TAU-stream aggregate (for tests and
// embedders).
func (s *Server) Profile() *taustream.Aggregator { return s.profile }

// Fingerprint returns the current corpus content fingerprint ("" until
// LoadCorpus completes).
func (s *Server) Fingerprint() string {
	if st := s.st.Load(); st != nil {
		return st.fingerprint
	}
	return ""
}

// Corpus returns the current corpus snapshot (nil until LoadCorpus
// completes).
func (s *Server) Corpus() *corpus.Corpus {
	if st := s.st.Load(); st != nil {
		return st.corpus
	}
	return nil
}

// --- request plumbing -------------------------------------------------------

// errorBody is the JSON error envelope every non-200 response carries.
type errorBody struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
}

// fail maps a computation error onto the HTTP surface: corpus
// classification errors become 400/404, cancellations mean the client
// is gone (nothing useful to write), everything else is a 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.metrics.Counter("http.canceled").Add(1)
		return
	}
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, corpus.ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, corpus.ErrNotFound):
		code = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(errorBody{SchemaVersion: schema.Version, Error: err.Error()})
}

// formatParam validates ?format= (text or json; text is the default,
// matching the CLIs).
func formatParam(r *http.Request) (string, error) {
	f := r.URL.Query().Get("format")
	if f == "" {
		f = "text"
	}
	if f != "text" && f != "json" {
		return "", fmt.Errorf("%w: unknown format %q", corpus.ErrBadRequest, f)
	}
	return f, nil
}

// serveCached answers one cacheable request: probe the snapshot's
// cache, coalesce concurrent misses, compute at most once per flight,
// and stamp the cache disposition and corpus fingerprint headers.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, st *state,
	endpoint string, params []string, contentType string, render func() ([]byte, error)) {

	// Stamp the corpus epoch on every response — errors included — so
	// clients can always tell which corpus version answered.
	w.Header().Set("X-Pdbd-Fingerprint", st.fingerprint)

	e, tier, err := st.cache.do(r.Context(), cacheKey(endpoint, params), func() (*entry, error) {
		body, err := render()
		if err != nil {
			return nil, err
		}
		return &entry{ContentType: contentType, Body: body}, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	if tier == "" {
		tier = "miss"
	}
	w.Header().Set("Content-Type", e.ContentType)
	w.Header().Set("X-Pdbd-Cache", tier)
	_, _ = w.Write(e.Body)
}

// renderBody runs write into a buffer and returns the bytes as a body
// whose capacity equals its length. Cached bodies live as long as the
// snapshot, and a grown bytes.Buffer can hold up to twice its length.
func renderBody(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if cap(b) == len(b) {
		return b, nil
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

func contentTypeFor(format string) string {
	if format == "json" {
		return "application/json"
	}
	return "text/plain; charset=utf-8"
}

// ready returns the current corpus snapshot, or answers 503 with a
// JSON envelope when the initial load hasn't completed yet. Handlers
// that need the corpus go through here so a deferred-start daemon
// degrades to "try again shortly" instead of a nil-pointer crash.
func (s *Server) ready(w http.ResponseWriter) (*state, bool) {
	st := s.st.Load()
	if st == nil {
		s.metrics.Counter("http.not_ready").Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(errorBody{SchemaVersion: schema.Version,
			Error: "corpus is still loading; retry shortly"})
		return nil, false
	}
	return st, true
}

// --- endpoints --------------------------------------------------------------

// healthzBody is the /v1/healthz response. Status is "ok" when the
// daemon is ready to answer corpus queries, "loading" during the
// deferred initial load, "reloading" while a reload rebuild is in
// flight — the latter two with HTTP 503, making the endpoint a
// readiness probe a load balancer can act on directly. Process
// liveness (is the daemon up at all?) is the separate, always-200
// /v1/livez.
type healthzBody struct {
	SchemaVersion int      `json:"schema_version"`
	Status        string   `json:"status"`
	Fingerprint   string   `json:"fingerprint"`
	Paths         []string `json:"paths"`
	CacheEntries  int      `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		SchemaVersion: schema.Version,
		Status:        "ok",
		Paths:         s.cfg.Paths,
	}
	code := http.StatusOK
	st := s.st.Load()
	if st == nil {
		body.Status, code = "loading", http.StatusServiceUnavailable
	} else {
		body.Fingerprint, body.CacheEntries = st.fingerprint, st.cache.mem.len()
		if s.reloading.Load() {
			// The old corpus still answers queries during a reload, but a
			// balancer asking "should I send NEW traffic here?" gets told
			// to prefer a replica that isn't mid-rebuild.
			body.Status, code = "reloading", http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// handleLivez is the liveness probe: 200 whenever the process can
// serve HTTP at all, no matter how far the corpus load has gotten.
// Restart-deciding probes point here; traffic-routing probes point at
// /v1/healthz.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = fmt.Fprintf(w, "{\n  \"schema_version\": %d,\n  \"status\": \"alive\"\n}\n", schema.Version)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.metrics.WriteJSON(w); err != nil {
		s.fail(w, err)
	}
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	s.query(w, r, corpus.CmdLookup, r.URL.Query()["node"])
}

// queryCommands maps the /v1/query/{cmd} path segment onto the corpus
// command set ("rdeps" is the daemon spelling of revdeps; both work).
var queryCommands = map[string]string{
	"nodes":      corpus.CmdNodes,
	"deps":       corpus.CmdDeps,
	"rdeps":      corpus.CmdRevDeps,
	"revdeps":    corpus.CmdRevDeps,
	"somepath":   corpus.CmdSomePath,
	"reaches":    corpus.CmdReaches,
	"whatinputs": corpus.CmdWhatInputs,
	"affected":   corpus.CmdAffected,
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	cmd, ok := queryCommands[r.PathValue("cmd")]
	if !ok {
		s.fail(w, fmt.Errorf("%w: unknown query command %q", corpus.ErrBadRequest, r.PathValue("cmd")))
		return
	}
	q := r.URL.Query()
	var args []string
	switch cmd {
	case corpus.CmdSomePath, corpus.CmdReaches:
		args = []string{q.Get("from"), q.Get("to")}
		if args[0] == "" || args[1] == "" {
			s.fail(w, fmt.Errorf("%w: %s needs from= and to=", corpus.ErrBadRequest, cmd))
			return
		}
	case corpus.CmdWhatInputs, corpus.CmdAffected:
		args = q["file"]
	case corpus.CmdNodes:
	default:
		args = q["node"]
	}
	s.query(w, r, cmd, args)
}

// query is the shared cacheable-query path behind /v1/lookup and
// /v1/query/{cmd}.
func (s *Server) query(w http.ResponseWriter, r *http.Request, cmd string, args []string) {
	format, err := formatParam(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	depth := 0
	if d := r.URL.Query().Get("depth"); d != "" {
		depth, err = strconv.Atoi(d)
		if err != nil {
			s.fail(w, fmt.Errorf("%w: bad depth %q", corpus.ErrBadRequest, d))
			return
		}
	}
	st, ok := s.ready(w)
	if !ok {
		return
	}
	params := append([]string{"format=" + format, "depth=" + strconv.Itoa(depth), "cmd=" + cmd}, args...)
	s.serveCached(w, r, st, "query", params, contentTypeFor(format), func() ([]byte, error) {
		res, err := st.corpus.Query(r.Context(), corpus.QueryRequest{Command: cmd, Args: args, Depth: depth})
		if err != nil {
			return nil, err
		}
		return renderBody(func(w io.Writer) error { return res.Write(w, format) })
	})
}

// csv splits a comma-separated query parameter, dropping empties.
func csv(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	format, err := formatParam(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	q := r.URL.Query()
	passes := csv(q.Get("passes"))
	bloat := 0
	if b := q.Get("template-bloat"); b != "" {
		bloat, err = strconv.Atoi(b)
		if err != nil {
			s.fail(w, fmt.Errorf("%w: bad template-bloat %q", corpus.ErrBadRequest, b))
			return
		}
	}
	// ?changed= routes the (cache-missing) run through the incremental
	// driver for its affected-set accounting; the report bytes are
	// identical either way, so it is deliberately NOT part of the cache
	// key — a warm cache answers regardless of what changed.
	changed := csv(q.Get("changed"))

	st, ok := s.ready(w)
	if !ok {
		return
	}
	params := append([]string{"format=" + format, "template-bloat=" + strconv.Itoa(bloat)}, passes...)
	s.serveCached(w, r, st, "lint", params, contentTypeFor(format), func() ([]byte, error) {
		req := corpus.LintRequest{Passes: passes, TemplateBloat: bloat, Changed: changed}
		if s.findings != "" {
			req.FindingsDB = s.findings
		}
		res, err := st.corpus.Lint(r.Context(), req)
		if err != nil {
			return nil, err
		}
		return renderBody(func(w io.Writer) error { return res.Write(w, format) })
	})
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := corpus.TreeRequest{
		Files:   q.Has("files"),
		Classes: q.Has("classes"),
		Calls:   q.Has("calls"),
	}
	st, ok := s.ready(w)
	if !ok {
		return
	}
	params := []string{
		"files=" + strconv.FormatBool(req.Files),
		"classes=" + strconv.FormatBool(req.Classes),
		"calls=" + strconv.FormatBool(req.Calls),
	}
	s.serveCached(w, r, st, "tree", params, "text/plain; charset=utf-8", func() ([]byte, error) {
		return renderBody(func(w io.Writer) error { return st.corpus.WriteTree(w, req) })
	})
}

func (s *Server) handleHTML(w http.ResponseWriter, r *http.Request) {
	page := r.PathValue("page")
	if page == "" {
		page = "index.html"
	}
	st, ok := s.ready(w)
	if !ok {
		return
	}
	s.serveCached(w, r, st, "html", []string{"page=" + page, "src=" + strconv.FormatBool(s.cfg.HTMLSource)},
		"text/html; charset=utf-8", func() ([]byte, error) {
			return st.corpus.HTMLPage(page, s.cfg.HTMLSource)
		})
}

// --- reload -----------------------------------------------------------------

// ReloadSummary reports what a reload did: the fingerprint epoch
// transition, which units changed, and how many memory-tier entries
// the old snapshot took with it. CacheCarried is always 0 (a changed
// corpus starts a fresh memory tier); it stays so the JSON schema does
// not change.
type ReloadSummary struct {
	SchemaVersion  int      `json:"schema_version"`
	OldFingerprint string   `json:"old_fingerprint"`
	Fingerprint    string   `json:"fingerprint"`
	Unchanged      bool     `json:"unchanged"`
	ChangedUnits   []string `json:"changed_units"`
	CacheCarried   int      `json:"cache_carried"`
	CacheDropped   int      `json:"cache_dropped"`
}

// Reload re-opens the corpus from the configured paths and, if its
// content changed, swaps in a new snapshot with a fresh cache. The
// new corpus builds its graph lazily, on first use, as at load.
//
// In-flight requests keep answering from the snapshot they loaded,
// cache included; new requests see the new corpus as soon as the swap
// lands.
func (s *Server) Reload(ctx context.Context) (*ReloadSummary, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	old := s.st.Load()
	if old == nil {
		return nil, fmt.Errorf("reload: %w: initial corpus load has not completed", corpus.ErrBadRequest)
	}

	// While the rebuild runs, /v1/healthz flips to 503 "reloading" so
	// balancers steer new traffic elsewhere; existing requests keep
	// answering from the old snapshot.
	s.reloading.Store(true)
	defer s.reloading.Store(false)

	sp := s.metrics.StartSpan("reload")
	defer sp.End()

	c, err := corpus.Open(ctx, s.cfg.Paths, s.cfg.Corpus)
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	sum := &ReloadSummary{
		SchemaVersion:  schema.Version,
		OldFingerprint: old.fingerprint,
		Fingerprint:    c.Fingerprint(),
		ChangedUnits:   []string{},
	}
	if sum.Fingerprint == sum.OldFingerprint {
		// Identical content: keep the old corpus (its lazily built
		// graph and fingerprints stay warm) and touch nothing.
		sum.Unchanged = true
		return sum, nil
	}
	if changed := c.Fingerprints().ChangedUnits(old.corpus.Fingerprints()); changed != nil {
		sum.ChangedUnits = changed
	}

	// Requests still on the old snapshot answer from its own cache, so
	// no answer is computed twice.
	s.st.Store(s.newState(c))
	sum.CacheDropped = old.cache.mem.len()
	s.metrics.Counter("cache.dropped").Add(int64(sum.CacheDropped))
	s.metrics.Counter("reload.count").Add(1)
	return sum, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	sum, err := s.Reload(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sum)
}
