package pdbd

import (
	"container/list"
	"sync"
)

// memCache is the in-memory tier of the result cache: a sharded LRU
// over rendered responses. Sharding by key keeps lock contention off
// the request path when many clients hit the daemon at once; each
// shard is an independent mutex + map + recency list.
const memShards = 16

type memCache struct {
	perShard int
	shards   [memShards]memShard
}

type memShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type memItem struct {
	key string
	ent *entry
}

// newMemCache builds the tier with room for capacity entries in total
// (minimum one per shard).
func newMemCache(capacity int) *memCache {
	per := capacity / memShards
	if per < 1 {
		per = 1
	}
	c := &memCache{perShard: per}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shard picks the shard for a key. Keys are hex SHA-256 strings, so
// any byte is uniformly distributed; fold the first two.
func (c *memCache) shard(key string) *memShard {
	var h uint8
	if len(key) >= 2 {
		h = key[0] ^ key[1]
	} else if len(key) == 1 {
		h = key[0]
	}
	return &c.shards[h%memShards]
}

// get returns the cached entry and bumps its recency.
func (c *memCache) get(key string) (*entry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memItem).ent, true
}

// put inserts (or refreshes) an entry, evicting the least recently
// used one when the shard is full.
func (c *memCache) put(key string, e *entry) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*memItem).ent = e
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&memItem{key: key, ent: e})
	if s.order.Len() > c.perShard {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.items, last.Value.(*memItem).key)
	}
}

// len reports the number of cached entries.
func (c *memCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
