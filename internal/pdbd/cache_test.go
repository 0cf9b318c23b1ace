package pdbd

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdt/internal/obs"
)

func testEntry(body string) *entry {
	return &entry{ContentType: "text/plain; charset=utf-8", Body: []byte(body)}
}

func TestMemCacheLRU(t *testing.T) {
	c := newMemCache(memShards) // one entry per shard
	// Two keys in the same shard: the second insert evicts the first.
	a, b := "aa-same-shard-1", "aa-same-shard-2"
	if c.shard(a) != c.shard(b) {
		t.Fatalf("test keys landed in different shards")
	}
	c.put(a, testEntry("A"))
	c.put(b, testEntry("B"))
	if _, ok := c.get(a); ok {
		t.Error("oldest entry survived past shard capacity")
	}
	if e, ok := c.get(b); !ok || string(e.Body) != "B" {
		t.Errorf("newest entry missing after eviction (ok=%v)", ok)
	}
	// Recency: touch b, insert a third key, b must survive.
	c.put(a, testEntry("A"))
	c.get(a)
	c.put(b, testEntry("B2"))
	if _, ok := c.get(b); !ok {
		t.Error("most recent insert evicted")
	}
}

func TestCacheSingleflightCoalesces(t *testing.T) {
	m := obs.New("test")
	c := newCache(64, m)
	key := cacheKey("query", []string{"cmd=deps"})

	const clients = 8
	gate := make(chan struct{})
	var computes atomic.Int64
	var done sync.WaitGroup
	done.Add(clients)
	errs := make([]error, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer done.Done()
			e, _, err := c.do(context.Background(), key, func() (*entry, error) {
				computes.Add(1)
				<-gate
				return testEntry("answer"), nil
			})
			errs[i] = err
			if e != nil {
				bodies[i] = string(e.Body)
			}
		}(i)
	}
	// Open the gate only once every other client is parked on the
	// leader's flight: then everyone is either the leader (blocked on
	// the gate) or a waiter, and no result exists yet.
	deadline := time.Now().Add(10 * time.Second)
	for c.group.waiters(key) < clients-1 {
		if time.Now().After(deadline) {
			n := c.group.waiters(key)
			close(gate)
			done.Wait()
			t.Fatalf("only %d of %d waiters parked", n, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil || bodies[i] != "answer" {
			t.Errorf("client %d: err=%v body=%q", i, errs[i], bodies[i])
		}
	}
	snap := m.Snapshot()
	if snap.Counters["cache.coalesced"] == 0 {
		t.Error("no requests were coalesced")
	}
}

// TestCacheMixedTrafficComputesOncePerKey: many clients hammering a
// small key space, with no evictions, must compute each key exactly
// once — a request that missed the cache just before a leader stored
// the answer must not start a second flight that recomputes it.
func TestCacheMixedTrafficComputesOncePerKey(t *testing.T) {
	const keys, clients, rounds = 16, 8, 200
	c := newCache(4096, obs.New("test"))
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i*5) % keys
				key := cacheKey("query", []string{fmt.Sprintf("k=%d", k)})
				e, _, err := c.do(context.Background(), key, func() (*entry, error) {
					computes[k].Add(1)
					return testEntry(fmt.Sprint(k)), nil
				})
				if err != nil || string(e.Body) != fmt.Sprint(k) {
					t.Errorf("key %d: err=%v entry=%v", k, err, e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestCacheLeaderCancelRetry pins the cancellation contract: a leader
// whose own client hangs up must not fail the waiters coalesced behind
// it — a surviving waiter retries and becomes the new leader.
func TestCacheLeaderCancelRetry(t *testing.T) {
	m := obs.New("test")
	c := newCache(64, m)
	key := cacheKey("query", []string{"cmd=deps"})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inCompute := make(chan struct{})
	var computes atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(leaderCtx, key, func() (*entry, error) {
			if computes.Add(1) == 1 {
				close(inCompute)
				<-leaderCtx.Done()
				return nil, leaderCtx.Err()
			}
			return testEntry("answer"), nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()

	<-inCompute
	waiterDone := make(chan error, 1)
	var waiterBody atomic.Value
	go func() {
		e, _, err := c.do(context.Background(), key, func() (*entry, error) {
			if computes.Add(1) == 1 {
				t.Error("waiter became first leader")
			}
			return testEntry("answer"), nil
		})
		if e != nil {
			waiterBody.Store(string(e.Body))
		}
		waiterDone <- err
	}()

	// Give the waiter a moment to coalesce, then kill the leader.
	// (If the waiter instead arrives after the flight died, it simply
	// becomes a leader itself — the assertion below holds either way.)
	cancelLeader()
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want success after retry", err)
	}
	if got, _ := waiterBody.Load().(string); got != "answer" {
		t.Errorf("waiter body = %q, want %q", got, "answer")
	}
	wg.Wait()
}

// TestCacheInvalidate pins how a reload invalidates: by replacing the
// snapshot's cache, not by key. The cache a changed corpus starts with
// misses every key, while the old snapshot's cache keeps answering the
// requests still on it.
func TestCacheInvalidate(t *testing.T) {
	old := newCache(64, obs.New("test"))
	deps := cacheKey("query", []string{"cmd=deps", "file:a.cc"})
	lint := cacheKey("lint", []string{"format=text"})
	old.mem.put(deps, testEntry("deps-old"))
	old.mem.put(lint, testEntry("lint-report"))

	fresh := newCache(64, obs.New("test2"))
	for _, key := range []string{deps, lint} {
		if _, ok := fresh.get(key); ok {
			t.Errorf("fresh cache hit on %s", key)
		}
	}
	if e, ok := old.get(deps); !ok || string(e.Body) != "deps-old" {
		t.Errorf("old cache lost its entry (ok=%v)", ok)
	}
}

func TestCacheKeyFraming(t *testing.T) {
	// The key must separate endpoint and params: moving a byte between
	// parts must change the key.
	a := cacheKey("query", []string{"ab"})
	b := cacheKey("query", []string{"a", "b"})
	d := cacheKey("querya", []string{"b"})
	if a == b || a == d || b == d {
		t.Errorf("cache keys collide across part boundaries: %s %s %s", a, b, d)
	}
}

// TestMemCacheSpreadsKeys: the shard pick must spread real keys evenly
// enough that a cache three-quarters full evicts nothing. A skewed
// pick overfills its busiest shard long before the total capacity.
func TestMemCacheSpreadsKeys(t *testing.T) {
	const entries, capacity = 3072, 4096
	c := newMemCache(capacity)
	for i := 0; i < entries; i++ {
		c.put(cacheKey("query", []string{fmt.Sprintf("node=%d", i)}), testEntry("x"))
	}
	if n := c.len(); n != entries {
		t.Errorf("cache holds %d of %d entries at capacity %d: shards are skewed", n, entries, capacity)
	}
}

// TestCacheDiskDisabled: responses live in memory only. A daemon with
// a cache directory keeps just the lint findings journal there.
func TestCacheDiskDisabled(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, testRaw(false), dir)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, u := range []string{"/v1/query/deps?node=file:main.cc", "/v1/lint", "/v1/tree"} {
		get(t, ts.URL+u)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "findings" {
		t.Errorf("cache dir holds %v, want just [findings]", names)
	}
}

func TestCacheDoComputesOnceThenHits(t *testing.T) {
	m := obs.New("test")
	c := newCache(64, m)
	key := cacheKey("q", nil)
	n := 0
	for i := 0; i < 3; i++ {
		e, tier, err := c.do(context.Background(), key, func() (*entry, error) {
			n++
			return testEntry(fmt.Sprintf("v%d", n)), nil
		})
		if err != nil || string(e.Body) != "v1" {
			t.Fatalf("do #%d = (%s, %v)", i, e.Body, err)
		}
		if i == 0 && tier != "miss" && tier != "" {
			t.Errorf("first do tier = %q, want miss", tier)
		}
		if i > 0 && tier != "mem" {
			t.Errorf("do #%d tier = %q, want mem", i, tier)
		}
	}
	if n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}
