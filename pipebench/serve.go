package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdt/internal/corpus"
	"pdt/internal/obs"
	"pdt/internal/pdbd"
	"pdt/internal/query"
	"pdt/internal/taustream"
	"pdt/internal/workload"
)

// The serve corpus and traffic mix.
const (
	serveUnits  = 200 // GenMergeUnits(200, 8, 6): per-unit PDBs pdbd merges
	serveShared = 8
	serveLocal  = 6

	reloadEvery  = 1000 // every this many ops, one rewrites a unit and reloads
	ingestOneIn  = 20   // about 5% of ops POST a PDTS profile batch
	maxReloads   = 128  // unit variants compiled during set-up
	sampleOneIn  = 16   // share of responses checked byte for byte
	retainOneIn  = 8    // one reload in this many keeps its snapshot for those checks,
	maxRetained  = 4    // up to this many snapshots, the initial one included
	batchReqs    = 1000 // read_s is the wall time per this many requests
	memEntries   = 4096 // pdbd's memory tier; the key space stays below it
	ingestTimers = 16
	serveSetups  = 3 // set-ups per run; setup_s is their median
)

// request is one cacheable GET of the mix.
type request struct {
	kind   string // deps, rdeps, affected, lookup, lint, tree
	arg    string // node spec, or file name for affected
	depth  int
	format string
}

func (r request) url(base string) string {
	q := url.Values{}
	path := "/v1/query/" + r.kind
	switch r.kind {
	case "deps", "rdeps":
		q.Set("node", r.arg)
		q.Set("depth", fmt.Sprint(r.depth))
	case "affected":
		q.Set("file", r.arg)
	case "lookup":
		path = "/v1/lookup"
		q.Set("node", r.arg)
	case "lint":
		path = "/v1/lint"
	case "tree":
		path = "/v1/tree"
		q.Set("calls", "")
	}
	if r.format != "" {
		q.Set("format", r.format)
	}
	return base + path + "?" + q.Encode()
}

// reference answers r in process, through the corpus API, on the
// snapshot c — what the CLIs print for the same question.
func (r request) reference(ctx context.Context, c *corpus.Corpus) ([]byte, error) {
	var b bytes.Buffer
	format := r.format
	if format == "" {
		format = "text"
	}
	var qr corpus.QueryRequest
	switch r.kind {
	case "deps":
		qr = corpus.QueryRequest{Command: corpus.CmdDeps, Args: []string{r.arg}, Depth: r.depth}
	case "rdeps":
		qr = corpus.QueryRequest{Command: corpus.CmdRevDeps, Args: []string{r.arg}, Depth: r.depth}
	case "affected":
		qr = corpus.QueryRequest{Command: corpus.CmdAffected, Args: []string{r.arg}}
	case "lookup":
		qr = corpus.QueryRequest{Command: corpus.CmdLookup, Args: []string{r.arg}}
	case "lint":
		res, err := c.Lint(ctx, corpus.LintRequest{})
		if err != nil {
			return nil, err
		}
		err = res.Write(&b, format)
		return b.Bytes(), err
	case "tree":
		err := c.WriteTree(&b, corpus.TreeRequest{Calls: true})
		return b.Bytes(), err
	}
	res, err := c.Query(ctx, qr)
	if err != nil {
		return nil, err
	}
	err = res.Write(&b, format)
	return b.Bytes(), err
}

// variant is a pre-compiled new version of one unit: applying it
// rewrites the unit's PDB, so every reload moves the corpus to a
// state it has never been in.
type variant struct {
	unit int
	pdb  []byte
}

// serveState is one set-up: the unit PDBs on disk, the daemon over
// them, its loopback listener, and the request key space.
type serveState struct {
	dir      string
	paths    []string
	variants []variant
	srv      *pdbd.Server
	metrics  *obs.Metrics // nil unless traced
	hs       *http.Server
	served   chan error
	base     string
	keys     map[string][]request // by request kind
	pdbBytes int
	frontend frontendCounts
}

func unitName(u int) string { return fmt.Sprintf("unit%03d.cpp", u) }

// setupServe compiles the corpus and starts a daemon over it. lap ends
// each piece of the set-up's timing (see repeatSetup).
func setupServe(ctx context.Context, e *env, i int, tr *tracer, lap func()) (*serveState, error) {
	st := &serveState{dir: filepath.Join(e.workdir, fmt.Sprintf("serve-%d", i))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	root := tr.begin("setup", -1)
	defer tr.end(root)

	compileUnit := func(hdr, src string, u int) ([]byte, error) {
		c := compileStaged(tr, root, &tu{files: map[string]string{"shared.h": hdr, unitName(u): src}, main: unitName(u)})
		if len(c.diags) > 0 {
			return nil, fmt.Errorf("%s: %s", unitName(u), c.diags[0])
		}
		st.frontend.add(c)
		return c.ascii, nil
	}
	hdr, units := workload.GenMergeUnits(serveUnits, serveShared, serveLocal)
	for u, src := range units {
		data, err := compileUnit(hdr, src, u)
		if err != nil {
			return nil, err
		}
		p := filepath.Join(st.dir, fmt.Sprintf("unit%03d.pdb", u))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return nil, err
		}
		st.paths = append(st.paths, p)
		st.pdbBytes += len(data)
		lap()
	}
	// Unit u's text depends only on u and the class count, so
	// GenMergeUnits(u+1, ...) yields it without generating the rest.
	rng := newRand(e.seed + 1)
	version := map[int]int{}
	for r := 0; r < maxReloads; r++ {
		u := rng.Intn(serveUnits)
		version[u]++
		hdr, units := workload.GenMergeUnits(u+1, serveShared, serveLocal+version[u])
		data, err := compileUnit(hdr, units[u], u)
		if err != nil {
			return nil, err
		}
		st.variants = append(st.variants, variant{unit: u, pdb: data})
		lap()
	}

	if tr != nil {
		st.metrics = obs.New("pdbd")
	}
	srv, err := pdbd.New(ctx, pdbd.Config{Paths: st.paths, MemEntries: memEntries, Metrics: st.metrics})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	lap()
	// Build the dependency graph now, as a warm daemon has it; it
	// also names the nodes the traffic asks about.
	g, err := srv.Corpus().Graph(ctx)
	if err != nil {
		return nil, err
	}
	st.keys = keySpace(g)
	lap()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = srv.HTTPServer()
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	return st, nil
}

// stop shuts the listener down, waits for Serve to return, and
// removes the set-up's files.
func (st *serveState) stop() {
	if st.hs != nil {
		_ = st.hs.Close()
		<-st.served
	}
	_ = os.RemoveAll(st.dir)
}

// keySpace is the cacheable requests the traffic draws from, by kind:
// deps and rdeps at depth 1-3 and lookups (text and JSON) of 64 nodes
// spread evenly over the sorted routine, class and file nodes, the
// affected sets of every fourth unit, lint (text and JSON) and the
// call tree: 565 keys. It is the same for every seed, so seeds vary
// the traffic, not its cost. It stays below memEntries, so no response
// is ever evicted and a repeated miss can only be a duplicate compute.
func keySpace(g *query.Graph) map[string][]request {
	byKind := map[query.Kind][]string{}
	for _, n := range g.Nodes() {
		byKind[n.Kind] = append(byKind[n.Kind], n.Key())
	}
	spread := func(kind query.Kind, k int) []string {
		all := byKind[kind]
		sort.Strings(all)
		var out []string
		for i := 0; i < k && i < len(all); i++ {
			out = append(out, all[i*len(all)/k])
		}
		return out
	}
	nodes := append(spread(query.KindRoutine, 32), spread(query.KindClass, 16)...)
	nodes = append(nodes, spread(query.KindFile, 16)...)
	keys := map[string][]request{}
	add := func(r request) { keys[r.kind] = append(keys[r.kind], r) }
	for _, n := range nodes {
		for d := 1; d <= 3; d++ {
			add(request{kind: "deps", arg: n, depth: d})
			add(request{kind: "rdeps", arg: n, depth: d})
		}
		add(request{kind: "lookup", arg: n})
		add(request{kind: "lookup", arg: n, format: "json"})
	}
	for u := 0; u < serveUnits; u += 4 {
		add(request{kind: "affected", arg: unitName(u)})
	}
	add(request{kind: "lint"})
	add(request{kind: "lint", format: "json"})
	add(request{kind: "tree"})
	return keys
}

// drawRequest picks a request: deps and rdeps 30% each, lookup 15%,
// affected 15%, lint 5%, call tree 5%; uniformly within the kind.
func drawRequest(rng *rand.Rand, keys map[string][]request) request {
	kind := "deps"
	switch x := rng.Intn(100); {
	case x < 30:
	case x < 60:
		kind = "rdeps"
	case x < 75:
		kind = "lookup"
	case x < 90:
		kind = "affected"
	case x < 95:
		kind = "lint"
	default:
		kind = "tree"
	}
	return keys[kind][rng.Intn(len(keys[kind]))]
}

// record is one completed request.
type record struct {
	done time.Duration // completion, from the phase start
	dur  time.Duration
	tier string // X-Pdbd-Cache; "ingest" for profile posts
}

// sample is a response kept for the byte-for-byte check.
type sample struct {
	req  request
	fp   string
	body []byte
}

// phase is one closed-loop measurement against one daemon.
type phase struct {
	st      *serveState
	tr      *tracer
	e       *env
	start   time.Time
	until   time.Time
	clients int

	reloadMu  sync.Mutex // serializes reloads
	nextVar   int
	reloads   []time.Duration
	summaries []pdbd.ReloadSummary

	mu         sync.Mutex
	snapshots  map[string]*corpus.Corpus // retained fingerprint -> corpus
	records    []record
	misses     map[string]int // request URL + fingerprint -> misses
	samples    []sample
	sentCalls  map[string]uint64
	ingestRuns uint64
	events     int64

	ops atomic.Int64 // ops started, over all clients
}

func newPhase(e *env, st *serveState, tr *tracer, d time.Duration) *phase {
	p := &phase{st: st, tr: tr, e: e, misses: map[string]int{}, sentCalls: map[string]uint64{},
		snapshots: map[string]*corpus.Corpus{}}
	p.snapshots[st.srv.Fingerprint()] = st.srv.Corpus()
	p.start = time.Now()
	p.until = p.start.Add(d)
	return p
}

// run drives the closed loop: one client per CPU, each with one
// keep-alive connection, each sending its next request only after the
// previous one completed.
func (p *phase) run() {
	clients := runtime.NumCPU()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			hc := &http.Client{Transport: tp}
			rng := newRand(p.e.seed*1000 + int64(c) + 3)
			for time.Now().Before(p.until) {
				switch {
				case p.ops.Add(1)%reloadEvery == 0:
					p.reload(hc)
				case rng.Intn(ingestOneIn) == 0:
					p.ingest(hc, rng)
				default:
					p.get(hc, rng, drawRequest(rng, p.st.keys))
				}
			}
		}(c)
	}
	wg.Wait()
	p.clients = clients
}

// fetch sends one request and reads the whole response.
func fetch(hc *http.Client, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func (p *phase) get(hc *http.Client, rng *rand.Rand, r request) {
	u := r.url(p.st.base)
	id := p.tr.begin("pdbd.request", -1)
	t0 := time.Now()
	resp, body, err := fetch(hc, http.MethodGet, u, nil)
	done := time.Now()
	p.tr.end(id)
	if err != nil {
		p.e.checks.op("GET " + u + ": " + err.Error())
		return
	}
	if resp.StatusCode != http.StatusOK {
		p.e.checks.op(fmt.Sprintf("GET %s: status %d: %s", u, resp.StatusCode, body))
		return
	}
	p.e.checks.op("")
	tier, fp := resp.Header.Get("X-Pdbd-Cache"), resp.Header.Get("X-Pdbd-Fingerprint")
	keep := rng.Intn(sampleOneIn) == 0
	p.mu.Lock()
	_, retained := p.snapshots[fp]
	p.records = append(p.records, record{done: done.Sub(p.start), dur: done.Sub(t0), tier: tier})
	if tier == "miss" {
		p.misses[u+"\x00"+fp]++
	}
	if keep && retained {
		p.samples = append(p.samples, sample{req: r, fp: fp, body: body})
	}
	p.mu.Unlock()
}

// ingest posts one PDTS batch: a run of ingestTimers timer samples
// (half of them template instantiations) with their call edges.
func (p *phase) ingest(hc *http.Client, rng *rand.Rand) {
	events := []taustream.Event{{Kind: taustream.KindRunStart, Unit: taustream.UnitNanos}}
	calls := map[string]uint64{}
	for i := 0; i < ingestTimers; i++ {
		name := fmt.Sprintf("local%d() C", rng.Intn(64))
		if i%2 == 1 {
			name = fmt.Sprintf("int Shared::cap() const CT(Shared<int, %d>)", 1+rng.Intn(serveShared))
		}
		n := uint64(1 + rng.Intn(10))
		incl := uint64(1000 + rng.Intn(100000))
		events = append(events,
			taustream.Event{Kind: taustream.KindSample, Name: name, Calls: n, Inclusive: incl, Exclusive: incl / 2},
			taustream.Event{Kind: taustream.KindEdge, Parent: "<root>", Name: name, Calls: n, Inclusive: incl})
		calls[name] += n
	}
	events = append(events, taustream.Event{Kind: taustream.KindRunEnd})
	body := taustream.AppendBatch(nil, events)

	id := p.tr.begin("taustream.ingest", -1)
	t0 := time.Now()
	resp, out, err := fetch(hc, http.MethodPost, p.st.base+"/v1/profile/ingest", body)
	done := time.Now()
	p.tr.end(id)
	if err != nil {
		p.e.checks.op("ingest: " + err.Error())
		return
	}
	var ack struct {
		Events int `json:"events"`
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		p.e.checks.op(fmt.Sprintf("ingest: status %d: %s", resp.StatusCode, out))
		return
	case json.Unmarshal(out, &ack) != nil || ack.Events != len(events):
		p.e.checks.op(fmt.Sprintf("ingest: accepted %q, sent %d events", out, len(events)))
		return
	}
	p.e.checks.op("")
	p.mu.Lock()
	p.records = append(p.records, record{done: done.Sub(p.start), dur: done.Sub(t0), tier: "ingest"})
	for n, c := range calls {
		p.sentCalls[n] += c
	}
	p.ingestRuns++
	p.events += int64(len(events))
	p.mu.Unlock()
}

// reload applies the next unit variant and asks pdbd to reload. The
// benchmark knows which unit it rewrote, so the summary must name
// exactly that unit.
func (p *phase) reload(hc *http.Client) {
	p.reloadMu.Lock()
	defer p.reloadMu.Unlock()
	if p.nextVar >= len(p.st.variants) {
		return
	}
	idx := p.nextVar
	v := p.st.variants[idx]
	p.nextVar++
	if err := os.WriteFile(p.st.paths[v.unit], v.pdb, 0o644); err != nil {
		p.e.checks.op("reload: rewrite unit: " + err.Error())
		return
	}
	id := p.tr.begin("pdbd.reload", -1)
	t0 := time.Now()
	resp, out, err := fetch(hc, http.MethodPost, p.st.base+"/v1/reload", nil)
	d := time.Since(t0)
	p.tr.end(id)
	if err != nil {
		p.e.checks.op("reload: " + err.Error())
		return
	}
	var sum pdbd.ReloadSummary
	if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &sum) != nil {
		p.e.checks.op(fmt.Sprintf("reload: status %d: %s", resp.StatusCode, out))
		return
	}
	// The variant adds a class, whose type is location-less and so
	// belongs to the fingerprint's pseudo-unit.
	changed := map[string]bool{}
	for _, u := range sum.ChangedUnits {
		changed[u] = true
	}
	delete(changed, query.PseudoUnit)
	if len(changed) != 1 || !changed[unitName(v.unit)] || sum.Unchanged {
		p.e.checks.op(fmt.Sprintf("reload: rewrote %s, summary reports changed units %v", unitName(v.unit), sum.ChangedUnits))
		return
	}
	c := p.st.srv.Corpus()
	if c.Fingerprint() != sum.Fingerprint {
		p.e.checks.op("reload: the daemon's corpus does not carry the fingerprint the reload reported")
		return
	}
	p.e.checks.op("")
	p.reloads = append(p.reloads, d)
	p.summaries = append(p.summaries, sum)
	p.mu.Lock()
	if idx%retainOneIn == 0 && len(p.snapshots) < maxRetained {
		p.snapshots[sum.Fingerprint] = c
	}
	p.mu.Unlock()
}

// verify checks the sampled responses against the corpus API on the
// snapshot each was answered from, and the live profile against the
// calls the benchmark sent.
func (p *phase) verify(ctx context.Context) {
	for _, s := range p.samples {
		want, err := s.req.reference(ctx, p.snapshots[s.fp])
		switch {
		case err != nil:
			p.e.checks.op(fmt.Sprintf("reference for %s: %v", s.req.url(""), err))
		case !bytes.Equal(s.body, want):
			p.e.checks.op(fmt.Sprintf("%s: pdbd body differs from corpus API on snapshot %.12s", s.req.url(""), s.fp))
		default:
			p.e.checks.op("")
		}
	}
	snap := p.st.srv.Profile().Snapshot()
	got := map[string]uint64{}
	for _, t := range snap.Timers {
		got[t.Name] = t.Calls
	}
	problem := ""
	if snap.Runs != p.ingestRuns {
		problem = fmt.Sprintf("profile has %d runs, %d were ingested", snap.Runs, p.ingestRuns)
	}
	for n, c := range p.sentCalls {
		if got[n] != c {
			problem = fmt.Sprintf("profile timer %q has %d calls, %d were sent", n, got[n], c)
		}
	}
	p.e.checks.op(problem)
}

// stats summarizes a phase.
type serveStats struct {
	reqs, ingests              int
	reloads                    []float64
	reqPerS, readS, p50, p99   float64
	beyondP99                  int
	reloadS                    float64
	hitP50, missP50, missP99   float64
	mem, miss, coalesced, dups int
	ingestP50                  float64
	carried, dropped           float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (p *phase) stats() serveStats {
	var s serveStats
	var all, hits, misses, ingests []float64
	elapsed := time.Duration(0)
	for _, r := range p.records {
		all = append(all, ms(r.dur))
		elapsed = max(elapsed, r.done)
		switch r.tier {
		case "mem":
			hits = append(hits, ms(r.dur))
			s.mem++
		case "miss":
			misses = append(misses, ms(r.dur))
			s.miss++
		case "coalesced":
			s.coalesced++
		case "ingest":
			ingests = append(ingests, ms(r.dur))
		}
	}
	s.reqs, s.ingests = len(all), len(ingests)
	if elapsed > 0 {
		s.reqPerS = float64(len(all)) / elapsed.Seconds()
	}
	if len(all) > 0 {
		s.readS = elapsed.Seconds() * batchReqs / float64(len(all))
	}
	s.p50, s.p99 = quantile(all, 0.5), quantile(all, 0.99)
	s.beyondP99 = len(all) - int(0.99*float64(len(all))+0.5)
	var reloads []float64
	for _, d := range p.reloads {
		reloads = append(reloads, d.Seconds())
	}
	s.reloadS, s.reloads = median(reloads), reloads
	s.hitP50, s.missP50, s.missP99 = quantile(hits, 0.5), quantile(misses, 0.5), quantile(misses, 0.99)
	for _, n := range p.misses {
		s.dups += n - 1
	}
	s.ingestP50 = quantile(ingests, 0.5)
	for _, sum := range p.summaries {
		s.carried += float64(sum.CacheCarried)
		s.dropped += float64(sum.CacheDropped)
	}
	if n := float64(len(p.summaries)); n > 0 {
		s.carried /= n
		s.dropped /= n
	}
	return s
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runServe(e *env) error {
	ctx := context.Background()
	st, err := repeatSetup(e, serveSetups, func(i int, lap func()) (*serveState, error) { return setupServe(ctx, e, i, e.tr, lap) },
		(*serveState).stop)
	if err != nil {
		return err
	}
	defer st.stop()

	var untraced *phase
	if e.traced {
		// The traced run measures half its time against an untraced
		// daemon, for the tracing overhead.
		plain, err := setupServe(ctx, e, serveSetups, nil, func() {})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		untraced = newPhase(e, plain, nil, e.seconds/2)
		untraced.run()
		untraced.verify(ctx)
		plain.stop()
	}
	d := e.seconds
	if e.traced {
		d = e.seconds / 2
	}
	var obsBefore int
	if st.metrics != nil {
		obsBefore = len(st.metrics.Snapshot().Spans)
	}
	p := newPhase(e, st, e.tr, d)
	p.run()
	p.verify(ctx)
	s := p.stats()
	if len(p.reloads) == 0 || s.reqs < batchReqs {
		e.checks.op(fmt.Sprintf("serve: only %d requests and %d reloads completed", s.reqs, len(p.reloads)))
	}

	e.setE2E("job_s", s.reloadS, "s")
	e.setE2E("read_s", s.readS, "s")
	e.setE2E("pdb_bytes", float64(st.pdbBytes), "bytes")
	e.printf("serve: %d units, %d closed-loop clients (one keep-alive connection each), %d requests (%d ingests), %d reloads, %d responses checked byte for byte",
		serveUnits, p.clients, s.reqs, s.ingests, len(p.reloads), len(p.samples))
	e.printf("req_per_s %.6g req/s", s.reqPerS)
	e.printf("req_p50_ms %.6g ms", s.p50)
	e.printf("req_p99_ms %.6g ms (%d samples beyond it)", s.p99, s.beyondP99)
	e.printf("read_s %.6g s per %d requests", s.readS, batchReqs)
	e.printf("reload_s %.6g s; reloads %s", s.reloadS, fmtList(s.reloads))
	if p.nextVar == len(st.variants) {
		e.printf("serve: all %d reload variants were used; later reload slots did nothing", len(st.variants))
	}
	e.printf("pdbd.dup_miss_ratio %.6g (%d duplicate misses of %d misses)", ratio(s.dups, s.miss), s.dups, s.miss)

	if e.traced {
		serveLayers(e, st, p, s, untraced.stats(), obsBefore)
	}
	return nil
}

// serveLayers fills the per-layer metrics. Frontend and writer layers
// run only in set-up here and report one set-up's work; the reload
// layers are read from pdbd's own obs spans and reported per reload;
// the cache layers come from the X-Pdbd-Cache header of each response.
func serveLayers(e *env, st *serveState, p *phase, s, plain serveStats, obsBefore int) {
	self := e.tr.selfByName()
	st.frontend.setLayers(e, func(name string) float64 { return self[name].Seconds() / serveSetups })

	spans := st.metrics.Snapshot().Spans[obsBefore:]
	var load, merge, ductape, fp, graph, lint time.Duration
	var lints int
	for _, sp := range spans {
		d := time.Duration(sp.DurNS)
		switch sp.Name {
		case "load":
			load += d
		case "merge":
			merge += d
			ductape += mergeWork(sp)
		case "fingerprint":
			fp += d
		case "graph.build":
			graph += d
		case "analysis":
			lint += d
			lints++
		}
	}
	var reloadWall time.Duration
	for _, d := range p.reloads {
		reloadWall += d
	}
	n := float64(max(len(p.reloads), 1))
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	var bytesRead int64
	for _, path := range st.paths {
		if fi, err := os.Stat(path); err == nil {
			bytesRead += fi.Size()
		}
	}
	g, err := st.srv.Corpus().Graph(context.Background())
	if err != nil {
		e.checks.op("graph: " + err.Error())
	} else {
		e.setLayer("query.nodes", float64(g.Len()), "count")
		e.setLayer("query.edges", float64(g.EdgeCount()), "count")
	}
	e.setLayer("pdbio.load_s", per(load), "s")
	e.setLayer("pdbio.merge_s", per(merge-ductape), "s")
	e.setLayer("pdbio.bytes_read", float64(bytesRead), "bytes")
	e.setLayer("ductape.merge_s", per(ductape), "s")
	e.setLayer("ductape.merge_items", float64(st.srv.Corpus().DB().Raw().ItemCount()), "count")
	e.setLayer("corpus.open_s", per(load+merge), "s")
	e.setLayer("query.fingerprint_s", per(fp), "s")
	e.setLayer("query.graph_s", per(graph), "s")
	if lints > 0 {
		e.setLayer("analysis.lint_s", lint.Seconds()/float64(lints), "s")
		e.setLayer("analysis.findings", float64(st.metrics.Snapshot().Counters["analysis.findings"])/float64(lints), "count")
	}
	e.setLayer("other.busy_s", per(reloadWall-load-merge-fp-graph), "s")

	e.setLayer("pdbd.hit_p50_ms", s.hitP50, "ms")
	e.setLayer("pdbd.miss_p50_ms", s.missP50, "ms")
	e.setLayer("pdbd.miss_p99_ms", s.missP99, "ms")
	e.setLayer("pdbd.mem_hit_ratio", ratio(s.mem, s.mem+s.miss+s.coalesced), "ratio")
	e.setLayer("pdbd.coalesced", float64(s.coalesced), "count")
	e.setLayer("pdbd.dup_miss_ratio", ratio(s.dups, s.miss), "ratio")
	e.setLayer("pdbd.cache_carried", s.carried, "count")
	e.setLayer("pdbd.cache_dropped", s.dropped, "count")
	e.setLayer("taustream.ingest_p50_ms", s.ingestP50, "ms")
	e.setLayer("taustream.events", float64(p.events), "count")
	e.setLayer("trace.overhead_s", s.readS-plain.readS, "s")
	e.printf("tracing overhead: read_s %.6g s traced vs %.6g s untraced", s.readS, plain.readS)
}
