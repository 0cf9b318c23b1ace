package pdbd

import (
	"context"
	"encoding/json"
	"errors"

	"pdt/internal/durable"
	"pdt/internal/obs"
	"pdt/internal/schema"
)

// entry is one cached response: the rendered body plus the metadata
// the cache needs to serve it (content type) and to tell on reload
// whether its disk copy answers for the new corpus (endpoint, params).
// The JSON encoding is the on-disk payload format inside the durable
// journal, which adds its own self-verifying header.
type entry struct {
	SchemaVersion int      `json:"schema_version"`
	Endpoint      string   `json:"endpoint"`
	Params        []string `json:"params"`
	ContentType   string   `json:"content_type"`
	Body          []byte   `json:"body"`
}

// cacheKey derives the content-addressed key of a response: the
// endpoint, its normalized parameters, and the corpus fingerprint the
// answer was computed against. Same question + same corpus content =
// same key, on every pdbd instance that ever loads this corpus.
func cacheKey(endpoint string, params []string, fingerprint string) string {
	parts := append([]string{"pdbd-response v1", endpoint}, params...)
	return durable.KeyOf(append(parts, fingerprint)...)
}

// cache is the two-tier result cache: a sharded in-memory LRU in
// front of an optional content-addressed disk tier (a durable
// journal). Disk hits are promoted into memory; memory evictions
// simply fall back to disk. A singleflight group coalesces concurrent
// misses for the same key so a thundering herd computes each answer
// once. Each corpus snapshot owns one cache; the snapshots of one
// daemon share its disk journal.
type cache struct {
	mem     *memCache
	disk    *durable.Journal // nil = memory-only
	metrics *obs.Metrics
	group   singleflight
}

func newCache(memEntries int, disk *durable.Journal, m *obs.Metrics) *cache {
	return &cache{mem: newMemCache(memEntries), disk: disk, metrics: m}
}

// get probes memory then disk. The tier string reports where the hit
// came from ("mem" or "disk") for the X-Pdbd-Cache header.
func (c *cache) get(key string) (*entry, string, bool) {
	if e, ok := c.mem.get(key); ok {
		c.metrics.Counter("cache.mem.hits").Add(1)
		return e, "mem", true
	}
	c.metrics.Counter("cache.mem.misses").Add(1)
	if c.disk == nil {
		return nil, "", false
	}
	if e, ok := c.load(key); ok {
		c.metrics.Counter("cache.disk.hits").Add(1)
		c.mem.put(key, e)
		return e, "disk", true
	}
	c.metrics.Counter("cache.disk.misses").Add(1)
	return nil, "", false
}

// load reads one entry from the disk tier. An entry the journal
// rejects, or that decodes to a foreign or stale-schema entry, is
// removed.
func (c *cache) load(key string) (*entry, bool) {
	payload, ok, invalid := c.disk.Load(key)
	if ok {
		var e entry
		if err := json.Unmarshal(payload, &e); err == nil && e.SchemaVersion == schema.Version {
			return &e, true
		}
		invalid = true
	}
	if invalid {
		c.metrics.Counter("cache.disk.invalid").Add(1)
		_ = c.disk.Remove(key)
	}
	return nil, false
}

// put stores an entry in both tiers. Disk write failures are counted,
// not fatal — the memory tier still serves the entry.
func (c *cache) put(key string, e *entry) {
	c.mem.put(key, e)
	if c.disk == nil {
		return
	}
	payload, err := json.Marshal(e)
	if err == nil {
		err = c.disk.Store(key, payload)
	}
	if err != nil {
		c.metrics.Counter("cache.disk.errors").Add(1)
	}
}

// do answers one request through the cache: hit either tier, or
// coalesce onto (or become) the leader computing the answer. Waiters
// whose leader was canceled retry as leader candidates — a client
// hanging up must not fail the requests riding behind it.
func (c *cache) do(ctx context.Context, key string, compute func() (*entry, error)) (*entry, string, error) {
	for {
		if e, tier, ok := c.get(key); ok {
			return e, tier, nil
		}
		tier := ""
		e, err, coalesced := c.group.do(ctx, key, func() (*entry, error) {
			// The leader of an earlier flight may have stored the
			// answer between the probe above and this flight's start
			// (put lands in memory before the flight ends); serve it
			// rather than compute it twice.
			if e, ok := c.mem.get(key); ok {
				tier = "mem"
				return e, nil
			}
			e, err := compute()
			if err != nil {
				return nil, err
			}
			c.put(key, e)
			return e, nil
		})
		if coalesced {
			c.metrics.Counter("cache.coalesced").Add(1)
		}
		var gone *leaderGoneError
		if errors.As(err, &gone) && ctx.Err() == nil {
			continue
		}
		if coalesced && err == nil {
			tier = "coalesced"
		}
		return e, tier, err
	}
}

// sweep keeps the disk tier to one corpus across a reload: it removes
// every journaled entry whose key is not the cacheKey of its own
// endpoint and params under fingerprint fp. The memory tier needs no
// sweep; a reload starts a fresh one.
func (c *cache) sweep(fp string) {
	if c.disk == nil {
		return
	}
	keys, err := c.disk.Keys()
	if err != nil {
		c.metrics.Counter("cache.disk.errors").Add(1)
		return
	}
	for _, key := range keys {
		if e, ok := c.load(key); ok && cacheKey(e.Endpoint, e.Params, fp) != key {
			_ = c.disk.Remove(key)
		}
	}
}
