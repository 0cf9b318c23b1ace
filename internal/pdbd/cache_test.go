package pdbd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/schema"
)

func testEntry(endpoint string, params []string, body string) *entry {
	return &entry{
		SchemaVersion: schema.Version,
		Endpoint:      endpoint,
		Params:        params,
		ContentType:   "text/plain; charset=utf-8",
		Body:          []byte(body),
	}
}

func TestMemCacheLRU(t *testing.T) {
	c := newMemCache(memShards) // one entry per shard
	// Two keys in the same shard: the second insert evicts the first.
	a, b := "aa-same-shard-1", "aa-same-shard-2"
	if c.shard(a) != c.shard(b) {
		t.Fatalf("test keys landed in different shards")
	}
	c.put(a, testEntry("q", nil, "A"))
	c.put(b, testEntry("q", nil, "B"))
	if _, ok := c.get(a); ok {
		t.Error("oldest entry survived past shard capacity")
	}
	if e, ok := c.get(b); !ok || string(e.Body) != "B" {
		t.Errorf("newest entry missing after eviction (ok=%v)", ok)
	}
	// Recency: touch b, insert a third key, b must survive.
	c.put(a, testEntry("q", nil, "A"))
	c.get(a)
	c.put(b, testEntry("q", nil, "B2"))
	if _, ok := c.get(b); !ok {
		t.Error("most recent insert evicted")
	}
}

func TestCacheTwoTierPromotion(t *testing.T) {
	dir := t.TempDir()
	j, err := durable.OpenJournal(durable.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New("test")
	c1 := newCache(64, j, m)
	key := cacheKey("query", []string{"cmd=nodes"}, "fp1")
	c1.put(key, testEntry("query", []string{"cmd=nodes"}, "hello"))

	// A second cache over the same directory (a daemon restart) has a
	// cold memory tier but hits disk — and promotes the entry into
	// memory so the next probe is a memory hit.
	j2, err := durable.OpenJournal(durable.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := obs.New("test2")
	c2 := newCache(64, j2, m2)
	e, tier, ok := c2.get(key)
	if !ok || tier != "disk" || string(e.Body) != "hello" {
		t.Fatalf("get after restart = (%v, %q, %v), want disk hit", e, tier, ok)
	}
	if _, tier, ok = c2.get(key); !ok || tier != "mem" {
		t.Fatalf("second get tier = %q, want mem (promoted)", tier)
	}
	snap := m2.Snapshot()
	if snap.Counters["cache.disk.hits"] != 1 || snap.Counters["cache.mem.hits"] != 1 {
		t.Errorf("counters = %v, want one disk hit and one mem hit", snap.Counters)
	}
}

func TestCacheSingleflightCoalesces(t *testing.T) {
	m := obs.New("test")
	c := newCache(64, nil, m)
	key := cacheKey("query", []string{"cmd=deps"}, "fp1")

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
				return testEntry("query", nil, "answer"), nil
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
	c := newCache(4096, nil, obs.New("test"))
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*7 + i*5) % keys
				key := cacheKey("query", []string{fmt.Sprintf("k=%d", k)}, "fp1")
				e, _, err := c.do(context.Background(), key, func() (*entry, error) {
					computes[k].Add(1)
					return testEntry("query", nil, fmt.Sprint(k)), nil
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
	c := newCache(64, nil, m)
	key := cacheKey("query", []string{"cmd=deps"}, "fp1")

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
			return testEntry("query", nil, "answer"), nil
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
			return testEntry("query", nil, "answer"), nil
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

func TestCacheInvalidate(t *testing.T) {
	dir := t.TempDir()
	j, err := durable.OpenJournal(durable.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New("test")
	c := newCache(64, j, m)

	oldFP, newFP := "fp-old", "fp-new"
	mk := func(endpoint string, params []string, keys []string, global bool, body string) string {
		e := testEntry(endpoint, params, body)
		e.NodeKeys = keys
		e.Global = global
		k := cacheKey(endpoint, params, oldFP)
		c.put(k, e)
		return k
	}
	kGlobal := mk("lint", []string{"format=text"}, nil, true, "lint-report")
	kHit := mk("query", []string{"cmd=deps", "file:changed.cc"}, []string{"file:changed.cc"}, false, "deps-changed")
	kMiss := mk("query", []string{"cmd=deps", "file:stable.cc"}, []string{"file:stable.cc"}, false, "deps-stable")

	carried, dropped := c.invalidate(oldFP, newFP, map[string]bool{"file:changed.cc": true})
	if carried != 1 || dropped != 2 {
		t.Errorf("invalidate = (carried %d, dropped %d), want (1, 2)", carried, dropped)
	}
	for _, k := range []string{kGlobal, kHit, kMiss} {
		if _, _, ok := c.get(k); ok {
			t.Errorf("old-fingerprint key still serves after invalidate")
		}
	}
	// The untouched entry was re-keyed to the new fingerprint — in
	// memory and on disk.
	nk := cacheKey("query", []string{"cmd=deps", "file:stable.cc"}, newFP)
	if e, tier, ok := c.get(nk); !ok || string(e.Body) != "deps-stable" || tier != "mem" {
		t.Fatalf("carried entry = (%v, %q, %v), want mem hit", e, tier, ok)
	}
	keys, err := j.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != nk {
		t.Errorf("disk keys after invalidate = %v, want exactly [%s]", keys, nk)
	}
}

func TestCacheKeyFraming(t *testing.T) {
	// The key must separate endpoint, params, and fingerprint: moving a
	// byte between parts must change the key.
	a := cacheKey("query", []string{"ab"}, "fp")
	b := cacheKey("query", []string{"a", "b"}, "fp")
	d := cacheKey("querya", []string{"b"}, "fp")
	if a == b || a == d || b == d {
		t.Errorf("cache keys collide across part boundaries: %s %s %s", a, b, d)
	}
	if cacheKey("q", nil, "fp1") == cacheKey("q", nil, "fp2") {
		t.Error("fingerprint does not affect the key")
	}
}

func TestCacheDiskDisabled(t *testing.T) {
	m := obs.New("test")
	c := newCache(4, nil, m)
	key := cacheKey("q", nil, "fp")
	if _, _, ok := c.get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(key, testEntry("q", nil, "x"))
	if e, tier, ok := c.get(key); !ok || tier != "mem" || string(e.Body) != "x" {
		t.Fatalf("get = (%v, %q, %v)", e, tier, ok)
	}
}

func TestCacheDoComputesOnceThenHits(t *testing.T) {
	m := obs.New("test")
	c := newCache(64, nil, m)
	key := cacheKey("q", nil, "fp")
	n := 0
	for i := 0; i < 3; i++ {
		e, tier, err := c.do(context.Background(), key, func() (*entry, error) {
			n++
			return testEntry("q", nil, fmt.Sprintf("v%d", n)), nil
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
