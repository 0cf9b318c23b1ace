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

// shard picks the shard for a key. Keys are lowercase hex SHA-256
// strings, so the value of the first hex digit is one of 16 equally
// likely values. A fold of two characters' ASCII codes is not uniform
// mod 16: digits and letters differ in their high bits.
func (c *memCache) shard(key string) *memShard {
	var h uint8
	if key != "" {
		h = key[0] - '0'
		if key[0] >= 'a' {
			h = key[0] - 'a' + 10
		}
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
