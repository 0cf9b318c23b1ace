package pdbd

import (
	"context"
	"errors"

	"pdt/internal/durable"
	"pdt/internal/obs"
)

// entry is one cached response: the rendered body and the content
// type to serve it with.
type entry struct {
	ContentType string
	Body        []byte
}

// cacheKey derives the key of a response from the endpoint and its
// normalized parameters. The corpus is not part of the key: each
// snapshot owns its cache, and a snapshot has exactly one fingerprint.
func cacheKey(endpoint string, params []string) string {
	return durable.KeyOf(append([]string{"pdbd-response v1", endpoint}, params...)...)
}

// cache is the result cache of one corpus snapshot: a sharded
// in-memory LRU, with a singleflight group that coalesces concurrent
// misses for the same key so a thundering herd computes each answer
// once.
type cache struct {
	mem     *memCache
	metrics *obs.Metrics
	group   singleflight
}

func newCache(memEntries int, m *obs.Metrics) *cache {
	return &cache{mem: newMemCache(memEntries), metrics: m}
}

// get probes the memory tier, counting the hit or miss.
func (c *cache) get(key string) (*entry, bool) {
	if e, ok := c.mem.get(key); ok {
		c.metrics.Counter("cache.mem.hits").Add(1)
		return e, true
	}
	c.metrics.Counter("cache.mem.misses").Add(1)
	return nil, false
}

// do answers one request through the cache: hit, or coalesce onto (or
// become) the leader computing the answer. The tier string is "mem"
// for a hit, "coalesced" for a waiter served by another's flight and
// "" for a computed miss. Waiters whose leader was canceled retry as
// leader candidates — a client hanging up must not fail the requests
// riding behind it.
func (c *cache) do(ctx context.Context, key string, compute func() (*entry, error)) (*entry, string, error) {
	for {
		if e, ok := c.get(key); ok {
			return e, "mem", nil
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
			c.mem.put(key, e)
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
