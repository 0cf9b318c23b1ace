package pdbd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdt/internal/ductape"
	"pdt/internal/obs"
	"pdt/internal/pdb"
	"pdt/internal/schema"
)

// testRaw builds a corpus with two disconnected clusters, so a change
// in one provably cannot affect answers about the other:
//
//	cluster 1: main.cc -> a.h,  routine main (main.cc) calls helper (a.h)
//	cluster 2: lib2.cc -> c.h,  routine work (lib2.cc)
//
// With extra=true, cluster 2 gains a routine in c.h — the "changed
// corpus" second version.
func testRaw(extra bool) *pdb.PDB {
	fref := func(n int) pdb.Ref { return pdb.Ref{Prefix: "so", ID: n} }
	loc := func(file, line int) pdb.Loc { return pdb.Loc{File: fref(file), Line: line, Col: 1} }
	raw := &pdb.PDB{
		Files: []*pdb.SourceFile{
			{ID: 1, Name: "main.cc", Includes: []pdb.Ref{fref(2)}},
			{ID: 2, Name: "a.h"},
			{ID: 10, Name: "lib2.cc", Includes: []pdb.Ref{fref(11)}},
			{ID: 11, Name: "c.h"},
		},
		Routines: []*pdb.Routine{
			{ID: 30, Name: "main", Loc: loc(1, 10),
				Pos:   pdb.Pos{BodyBegin: loc(1, 10), BodyEnd: loc(1, 12)},
				Calls: []pdb.Call{{Callee: pdb.Ref{Prefix: "ro", ID: 31}, Loc: loc(1, 11)}}},
			{ID: 31, Name: "helper", Loc: loc(2, 10),
				Pos: pdb.Pos{BodyBegin: loc(2, 10), BodyEnd: loc(2, 12)}},
			{ID: 32, Name: "work", Loc: loc(10, 5),
				Pos: pdb.Pos{BodyBegin: loc(10, 5), BodyEnd: loc(10, 7)}},
		},
	}
	if extra {
		raw.Routines = append(raw.Routines, &pdb.Routine{
			ID: 33, Name: "extra", Loc: loc(11, 3),
			Pos: pdb.Pos{BodyBegin: loc(11, 3), BodyEnd: loc(11, 5)},
		})
	}
	return raw
}

func saveRaw(t *testing.T, path string, raw *pdb.PDB) {
	t.Helper()
	if err := ductape.FromRaw(raw).Save(path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer saves the raw database and boots a daemon over it.
func newTestServer(t *testing.T, raw *pdb.PDB, cacheDir string) (*Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.pdb")
	saveRaw(t, path, raw)
	s, err := New(context.Background(), Config{
		Paths:    []string{path},
		CacheDir: cacheDir,
		Metrics:  obs.New("pdbd-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

// get fetches a URL and returns status, body, and the cache header.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("X-Pdbd-Cache")
}

func TestServerEndpoints(t *testing.T) {
	s, _ := newTestServer(t, testRaw(false), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, url, want string
	}{
		{"healthz", "/v1/healthz", `"status": "ok"`},
		{"lookup", "/v1/lookup?node=file:main.cc", "file:main.cc\n"},
		{"nodes", "/v1/query/nodes", "routine:helper()"},
		{"deps", "/v1/query/deps?node=file:main.cc", "file:a.h"},
		{"rdeps", "/v1/query/rdeps?node=file:a.h", "file:main.cc"},
		{"somepath", "/v1/query/somepath?from=file:main.cc&to=file:a.h", "-include->"},
		{"reaches", "/v1/query/reaches?from=file:main.cc&to=file:a.h", "true\n"},
		{"whatinputs", "/v1/query/whatinputs?file=file:a.h", "file:main.cc"},
		{"affected", "/v1/query/affected?file=file:a.h", "routine:main()"},
		{"deps_json", "/v1/query/deps?node=file:main.cc&format=json", `"schema_version": 1`},
		{"lint", "/v1/lint", "dead-routine"},
		{"lint_json", "/v1/lint?format=json", `"schema_version": 1`},
		{"tree", "/v1/tree", "=== file inclusion tree ==="},
		{"tree_calls", "/v1/tree?calls", "=== static call graph ==="},
		{"html_index", "/v1/html/index.html", "<html>"},
		{"html_default", "/v1/html/", "<html>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body, _ := get(t, ts.URL+c.url)
			if code != http.StatusOK {
				t.Fatalf("GET %s = %d\n%s", c.url, code, body)
			}
			if !strings.Contains(body, c.want) {
				t.Errorf("GET %s missing %q in:\n%s", c.url, c.want, body)
			}
		})
	}

	// /v1/metrics snapshots the daemon registry, including cache counters.
	code, body, _ := get(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK || !strings.Contains(body, "cache.mem.misses") {
		t.Errorf("metrics = %d:\n%s", code, body)
	}

	// Error surface: unknown nodes are 404, malformed requests 400.
	for _, c := range []struct {
		url  string
		code int
	}{
		{"/v1/query/deps?node=file:nope.cc", http.StatusNotFound},
		{"/v1/html/no-such-page.html", http.StatusNotFound},
		{"/v1/query/frobnicate?node=x", http.StatusBadRequest},
		{"/v1/query/deps?node=file:main.cc&depth=zap", http.StatusBadRequest},
		{"/v1/query/somepath?from=file:main.cc", http.StatusBadRequest},
		{"/v1/lint?passes=no-such-pass", http.StatusBadRequest},
		{"/v1/query/deps?node=file:main.cc&format=yaml", http.StatusBadRequest},
	} {
		code, body, _ := get(t, ts.URL+c.url)
		if code != c.code {
			t.Errorf("GET %s = %d, want %d\n%s", c.url, code, c.code, body)
		}
		if code != http.StatusOK && !strings.Contains(body, `"schema_version"`) {
			t.Errorf("GET %s error body not versioned:\n%s", c.url, body)
		}
	}
}

func TestServerCacheTiers(t *testing.T) {
	cacheDir := t.TempDir()
	s, path := newTestServer(t, testRaw(false), cacheDir)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/query/deps?node=file:main.cc"
	_, cold, tier := get(t, url)
	if tier != "miss" {
		t.Errorf("first request tier = %q, want miss", tier)
	}
	_, warm, tier := get(t, url)
	if tier != "mem" {
		t.Errorf("second request tier = %q, want mem", tier)
	}
	if cold != warm {
		t.Error("cached response differs from computed response")
	}

	// A fresh daemon over the same cache directory (a restart) starts
	// with an empty cache and computes the same answer again.
	s2, err := New(context.Background(), Config{
		Paths:    []string{path},
		CacheDir: cacheDir,
		Metrics:  obs.New("pdbd-test-2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, restarted, tier := get(t, ts2.URL+"/v1/query/deps?node=file:main.cc")
	if tier != "miss" {
		t.Errorf("restarted daemon tier = %q, want miss", tier)
	}
	if restarted != cold {
		t.Error("restarted daemon's response differs from original")
	}
}

// TestServerReloadInvalidation pins the reload contract: a changed
// corpus starts a fresh memory tier, so every warm entry — exact-spec
// query, bare-name lookup, corpus-global lint, and one whose answer the
// change alters — computes once more and then serves warm again.
func TestServerReloadInvalidation(t *testing.T) {
	s, path := newTestServer(t, testRaw(false), t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urlChanged := ts.URL + "/v1/query/affected?file=file:c.h"
	urls := []string{
		ts.URL + "/v1/query/deps?node=file:main.cc",
		ts.URL + "/v1/lookup?node=helper()",
		ts.URL + "/v1/lint",
		urlChanged,
	}
	for _, u := range urls {
		get(t, u)
	}
	_, before, _ := get(t, urlChanged)

	// Change cluster 2 only (a new routine in c.h) and reload.
	saveRaw(t, path, testRaw(true))
	resp, err := http.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum ReloadSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.SchemaVersion != schema.Version || sum.Unchanged {
		t.Fatalf("reload summary = %+v", sum)
	}
	if len(sum.ChangedUnits) != 1 || sum.ChangedUnits[0] != "c.h" {
		t.Errorf("changed units = %v, want [c.h]", sum.ChangedUnits)
	}
	if sum.CacheCarried != 0 || sum.CacheDropped != len(urls) {
		t.Errorf("cache carried %d dropped %d, want 0 carried and %d dropped",
			sum.CacheCarried, sum.CacheDropped, len(urls))
	}

	for _, u := range urls {
		for _, want := range []string{"miss", "mem"} {
			if code, _, tier := get(t, u); code != http.StatusOK || tier != want {
				t.Errorf("GET %s after reload = (%d, %q), want (200, %q)", u, code, tier, want)
			}
		}
	}
	_, after, _ := get(t, urlChanged)
	if after == before {
		t.Error("affected set did not change after the corpus changed")
	}
	if !strings.Contains(after, "routine:extra()") {
		t.Errorf("new affected set missing the added routine:\n%s", after)
	}

	// Reloading identical content is a no-op.
	resp, err = http.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sum.Unchanged {
		t.Errorf("identical reload not reported unchanged: %+v", sum)
	}
	for _, u := range urls {
		if _, _, tier := get(t, u); tier != "mem" {
			t.Errorf("GET %s after identical reload = %q, want mem", u, tier)
		}
	}
}

// TestServerLookupWithNonExactSpecIsGlobal checks that a bare-name
// lookup, whose matches a reload can change anywhere in the corpus, does
// not outlive a changed reload: it computes once more, then serves warm.
func TestServerLookupWithNonExactSpecIsGlobal(t *testing.T) {
	s, path := newTestServer(t, testRaw(false), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/v1/lookup?node=helper()"
	get(t, url)
	saveRaw(t, path, testRaw(true))
	sum, err := s.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.CacheCarried != 0 || sum.CacheDropped != 1 {
		t.Fatalf("bare-name lookup entry survived a reload: %+v", sum)
	}
	for _, want := range []string{"miss", "mem"} {
		if _, _, tier := get(t, url); tier != want {
			t.Errorf("bare-name lookup tier after reload = %q, want %q", tier, want)
		}
	}
}

// TestServerReloadTrafficComputesOncePerKey runs concurrent GETs across
// several reloads, each to new content, and counts the requests that
// computed their answer (X-Pdbd-Cache: miss) per URL and fingerprint.
// Each must compute at most once: a request still holding the old
// snapshot must find that snapshot's answers, not recompute them.
func TestServerReloadTrafficComputesOncePerKey(t *testing.T) {
	s, path := newTestServer(t, testRaw(false), t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		"/v1/query/deps?node=file:main.cc",
		"/v1/query/affected?file=file:c.h",
		"/v1/lookup?node=work()",
		"/v1/tree?calls",
		"/v1/lint",
	}
	var mu sync.Mutex
	computes := map[string]int{} // url + fingerprint -> misses
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// finish stops the clients, also when a Fatal below ends the test.
	finish := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer finish()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(i+n)%len(urls)]
				resp, err := client.Get(ts.URL + u)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", u, resp.StatusCode)
					return
				}
				if resp.Header.Get("X-Pdbd-Cache") == "miss" {
					mu.Lock()
					computes[u+" @ "+resp.Header.Get("X-Pdbd-Fingerprint")]++
					mu.Unlock()
				}
				served.Add(1)
			}
		}(i)
	}

	for round := 0; round < 8; round++ {
		// Let traffic run against the current snapshot first.
		deadline := time.Now().Add(10 * time.Second)
		for want := served.Load() + 50; served.Load() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		// Every round renames the added routine, so no fingerprint
		// repeats and each key has exactly one snapshot to live in.
		raw := testRaw(true)
		raw.Routines[len(raw.Routines)-1].Name = fmt.Sprintf("extra%d", round)
		saveRaw(t, path, raw)
		if sum, err := s.Reload(context.Background()); err != nil || sum.Unchanged {
			t.Fatalf("reload %d = (%+v, %v)", round, sum, err)
		}
	}
	finish()
	for k, n := range computes {
		if n > 1 {
			t.Errorf("%s computed %d times, want at most 1", k, n)
		}
	}
}

// TestServerConcurrentReload hammers mixed endpoints while the corpus
// flips between two versions under POST /v1/reload. Every response
// must be internally consistent: the body must match the corpus
// version named by its X-Pdbd-Fingerprint header — old or new, never
// a mix. Run under -race this also exercises the swap and cache paths
// for data races.
func TestServerConcurrentReload(t *testing.T) {
	s, path := newTestServer(t, testRaw(false), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Learn the two (fingerprint -> expected body) pairs up front.
	expect := map[string]map[string]string{} // fingerprint -> url -> body
	urls := []string{
		"/v1/query/affected?file=file:c.h",
		"/v1/query/deps?node=file:lib2.cc",
		"/v1/lookup?node=routine:extra()&node=routine:work()",
	}
	learn := func() string {
		fp := s.Fingerprint()
		bodies := map[string]string{}
		for _, u := range urls {
			_, body, _ := get(t, ts.URL+u)
			bodies[u] = body
		}
		expect[fp] = bodies
		return fp
	}
	fp1 := learn()
	saveRaw(t, path, testRaw(true))
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	fp2 := learn()
	if fp1 == fp2 {
		t.Fatal("the two corpus versions fingerprint identically")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(i+n)%len(urls)]
				resp, err := client.Get(ts.URL + u)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				fp := resp.Header.Get("X-Pdbd-Fingerprint")
				want, ok := expect[fp][u]
				if !ok {
					t.Errorf("response under unknown fingerprint %q", fp)
					return
				}
				if string(body) != want {
					t.Errorf("GET %s under %.12s: body does not match that corpus version\n got: %s\nwant: %s",
						u, fp, body, want)
					return
				}
			}
		}(i)
	}

	for round := 0; round < 6; round++ {
		saveRaw(t, path, testRaw(round%2 == 0))
		if _, err := s.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestServerLintIncrementalFindings(t *testing.T) {
	// With a cache dir, /v1/lint runs through the incremental driver:
	// the first run populates the findings journal, and a restarted
	// daemon (whose response cache starts empty) re-runs lint by
	// splicing every pass from it. The response bytes never change.
	path := filepath.Join(t.TempDir(), "corpus.pdb")
	saveRaw(t, path, testRaw(false))
	cacheDir := t.TempDir()
	start := func(m *obs.Metrics) *httptest.Server {
		s, err := New(context.Background(), Config{
			Paths:    []string{path},
			CacheDir: cacheDir,
			Metrics:  m,
		})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(s.Handler())
	}
	m := obs.New("pdbd-lint")
	ts := start(m)
	defer ts.Close()

	_, first, _ := get(t, ts.URL+"/v1/lint")
	stored := m.Snapshot().Counters["findings.stored"]
	if stored == 0 {
		t.Error("first lint run stored no findings in the journal")
	}
	// Same corpus, cache hit: no second run at all.
	_, second, tier := get(t, ts.URL+"/v1/lint")
	if tier != "mem" || second != first {
		t.Errorf("second lint = (%q, equal=%v), want warm identical", tier, second == first)
	}

	m2 := obs.New("pdbd-lint-2")
	ts2 := start(m2)
	defer ts2.Close()
	_, restarted, tier := get(t, ts2.URL+"/v1/lint")
	if tier != "miss" || restarted != first {
		t.Errorf("lint after restart = (%q, equal=%v), want miss identical", tier, restarted == first)
	}
	snap := m2.Snapshot()
	if snap.Counters["lint.reused"] != stored || snap.Counters["findings.stored"] != 0 {
		t.Errorf("lint after restart reused %d passes and stored %d, want %d reused and 0 stored",
			snap.Counters["lint.reused"], snap.Counters["findings.stored"], stored)
	}
}

// TestServerReadiness drives the deferred-start lifecycle: a daemon
// whose corpus hasn't loaded yet must stay alive on /v1/livez, answer
// 503 "loading" on /v1/healthz and on every corpus-backed endpoint,
// then flip to 200 "ok" the moment LoadCorpus completes.
func TestServerReadiness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.pdb")
	saveRaw(t, path, testRaw(false))
	s, err := NewDeferred(Config{Paths: []string{path}, Metrics: obs.New("pdbd-test")})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness is green before the corpus exists.
	code, body, _ := get(t, ts.URL+"/v1/livez")
	if code != http.StatusOK || !strings.Contains(body, `"alive"`) {
		t.Errorf("livez while loading = %d:\n%s", code, body)
	}

	// Readiness is not: 503 with a versioned JSON envelope.
	code, body, _ = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while loading = %d, want 503\n%s", code, body)
	}
	if !strings.Contains(body, `"status": "loading"`) || !strings.Contains(body, `"schema_version"`) {
		t.Errorf("healthz loading body:\n%s", body)
	}

	// Corpus-backed endpoints degrade to 503, never crash.
	for _, url := range []string{
		"/v1/lookup?node=file:main.cc",
		"/v1/query/deps?node=file:main.cc",
		"/v1/lint",
		"/v1/tree",
		"/v1/html/index.html",
	} {
		code, body, _ := get(t, ts.URL+url)
		if code != http.StatusServiceUnavailable {
			t.Errorf("GET %s while loading = %d, want 503\n%s", url, code, body)
		}
		if !strings.Contains(body, `"schema_version"`) {
			t.Errorf("GET %s 503 body not versioned:\n%s", url, body)
		}
	}

	// A reload before the initial load is a client error, not a panic.
	resp, err := http.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reload while loading = %d, want 400", resp.StatusCode)
	}

	if err := s.LoadCorpus(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body, _ = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz after load = %d:\n%s", code, body)
	}
	if !strings.Contains(body, s.Fingerprint()) {
		t.Errorf("healthz missing fingerprint %q:\n%s", s.Fingerprint(), body)
	}
	code, body, _ = get(t, ts.URL+"/v1/query/deps?node=file:main.cc")
	if code != http.StatusOK || !strings.Contains(body, "file:a.h") {
		t.Errorf("query after load = %d:\n%s", code, body)
	}
}

// TestServerHealthzDuringReload pins the readiness dip while a reload
// rebuild is in flight: healthz answers 503 "reloading" (still carrying
// the serving fingerprint), data endpoints keep answering 200 from the
// old snapshot, and readiness returns once the swap lands.
func TestServerHealthzDuringReload(t *testing.T) {
	s, _ := newTestServer(t, testRaw(false), "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.reloading.Store(true)
	code, body, _ := get(t, ts.URL+"/v1/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "reloading"`) {
		t.Errorf("healthz during reload = %d:\n%s", code, body)
	}
	if !strings.Contains(body, s.Fingerprint()) {
		t.Errorf("reloading healthz should carry the serving fingerprint:\n%s", body)
	}
	// Old snapshot keeps serving while not "ready".
	code, body, _ = get(t, ts.URL+"/v1/query/deps?node=file:main.cc")
	if code != http.StatusOK || !strings.Contains(body, "file:a.h") {
		t.Errorf("query during reload = %d:\n%s", code, body)
	}
	s.reloading.Store(false)

	// A real reload restores readiness on completion.
	if _, err := s.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body, _ = get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("healthz after reload = %d:\n%s", code, body)
	}
}
