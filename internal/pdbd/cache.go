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
// the cache needs to serve it (content type) and to invalidate or
// carry it across a corpus reload (endpoint, params, node keys,
// global). The JSON encoding is the on-disk payload format inside the
// durable journal, which adds its own self-verifying header.
type entry struct {
	SchemaVersion int      `json:"schema_version"`
	Endpoint      string   `json:"endpoint"`
	Params        []string `json:"params"`
	NodeKeys      []string `json:"node_keys,omitempty"`
	Global        bool     `json:"global,omitempty"`
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
// once.
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
	payload, ok, invalid := c.disk.Load(key)
	if invalid {
		c.metrics.Counter("cache.disk.invalid").Add(1)
		_ = c.disk.Remove(key)
	}
	if ok {
		var e entry
		if err := json.Unmarshal(payload, &e); err == nil && e.SchemaVersion == schema.Version {
			c.metrics.Counter("cache.disk.hits").Add(1)
			c.mem.put(key, &e)
			return &e, "disk", true
		}
		// Decodable by the journal but not by us: a foreign or
		// stale-schema entry. Drop it.
		c.metrics.Counter("cache.disk.invalid").Add(1)
		_ = c.disk.Remove(key)
	}
	c.metrics.Counter("cache.disk.misses").Add(1)
	return nil, "", false
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

// invalidate rewires the cache across a corpus reload. Entries keyed
// to the old fingerprint are either dropped — global entries, and
// entries whose recorded node keys intersect the drop set (the
// affected closure of the changed units on both the old and the new
// graph) — or carried: re-keyed to the new fingerprint so the answers
// they hold, provably untouched by the change, keep serving warm.
func (c *cache) invalidate(oldFP, newFP string, drop map[string]bool) (carried, dropped int) {
	rekey := func(key string, e *entry) {
		doomed := e.Global
		for _, k := range e.NodeKeys {
			doomed = doomed || drop[k]
		}
		if doomed {
			dropped++
			return
		}
		carried++
		c.put(cacheKey(e.Endpoint, e.Params, newFP), e)
	}
	for key, e := range c.mem.snapshot() {
		c.mem.remove(key)
		if c.disk != nil {
			// The disk copy under the old key is superseded either way:
			// dropped entries must not linger, carried ones are re-stored
			// under the new key by rekey's put.
			_ = c.disk.Remove(key)
		}
		rekey(key, e)
	}
	if c.disk != nil {
		keys, err := c.disk.Keys()
		if err != nil {
			c.metrics.Counter("cache.disk.errors").Add(1)
			keys = nil
		}
		for _, key := range keys {
			payload, ok, invalid := c.disk.Load(key)
			if invalid {
				c.metrics.Counter("cache.disk.invalid").Add(1)
			}
			if !ok {
				_ = c.disk.Remove(key)
				continue
			}
			var e entry
			if err := json.Unmarshal(payload, &e); err != nil || e.SchemaVersion != schema.Version {
				c.metrics.Counter("cache.disk.invalid").Add(1)
				_ = c.disk.Remove(key)
				continue
			}
			if nk := cacheKey(e.Endpoint, e.Params, newFP); nk == key {
				// Already keyed to the new fingerprint (written by the
				// memory pass above, or a shared-disk peer).
				continue
			}
			_ = c.disk.Remove(key)
			rekey(key, &e)
		}
	}
	c.metrics.Counter("cache.carried").Add(int64(carried))
	c.metrics.Counter("cache.dropped").Add(int64(dropped))
	return carried, dropped
}
