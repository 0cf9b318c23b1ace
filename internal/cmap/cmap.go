// Package cmap provides a sharded concurrent map: the key space is
// split across a fixed power-of-two number of independently locked
// shards, so readers and writers only contend when their keys hash to
// the same shard. It backs the live profile aggregate of
// internal/taustream, where many concurrent ingest requests update
// shared timer and edge tables and one RWMutex would serialize them.
//
// The design follows the src/cmap shape of the please build system:
// fixed shard array, per-shard RWMutex + map, a cheap hash to pick the
// shard, and a GetOrSet primitive so dedup ("first writer wins, and
// tell me who won") is one shard-local critical section instead of a
// global lock-check-insert dance.
package cmap

import (
	"math/bits"
	"sync"
)

// shardCount is the number of shards. 64 keeps per-shard contention
// negligible at any realistic core count while costing only a few
// kilobytes per map; a power of two makes shard selection a mask.
const shardCount = 64

// Hasher maps a key to a well-distributed 64-bit value. The high bits
// pick the shard, so identity hashes on small ints must be avoided —
// use the provided IntHash/StringHash.
type Hasher[K comparable] func(K) uint64

// IntHash is a Fibonacci multiplicative hash: one multiply spreads
// dense sequential IDs (the common PDB case) across shards.
func IntHash(k int) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15
}

// StringHash is FNV-1a, inlined to avoid the hash.Hash64 allocation.
func StringHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

type shard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Map is a sharded concurrent map. The zero value is not usable; use
// New (or NewInt / NewString).
type Map[K comparable, V any] struct {
	hash   Hasher[K]
	shards [shardCount]shard[K, V]
}

// New builds an empty map sharded by hash.
func New[K comparable, V any](hash Hasher[K]) *Map[K, V] {
	m := &Map[K, V]{hash: hash}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V)
	}
	return m
}

// NewInt builds an int-keyed map with the Fibonacci hash.
func NewInt[V any]() *Map[int, V] { return New[int, V](IntHash) }

// NewString builds a string-keyed map with the FNV-1a hash.
func NewString[V any]() *Map[string, V] { return New[string, V](StringHash) }

func (m *Map[K, V]) shard(k K) *shard[K, V] {
	// The top bits of the hash select the shard: multiplicative hashes
	// mix upward, so the high bits are the well-distributed ones.
	return &m.shards[m.hash(k)>>(64-bits.Len(shardCount-1))]
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	s := m.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Value returns the value stored under k, or the zero value when
// absent — the sharded spelling of a plain map index expression.
func (m *Map[K, V]) Value(k K) V {
	v, _ := m.Get(k)
	return v
}

// Set stores v under k, replacing any existing value.
func (m *Map[K, V]) Set(k K, v V) {
	s := m.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// GetOrSet returns the value stored under k, storing (and returning)
// v if the key was absent. The boolean reports whether the key was
// already present — the dedup primitive: the first caller wins and
// every caller learns the winner, all in one shard-local section.
func (m *Map[K, V]) GetOrSet(k K, v V) (V, bool) {
	s := m.shard(k)
	s.mu.Lock()
	if old, ok := s.m[k]; ok {
		s.mu.Unlock()
		return old, true
	}
	s.m[k] = v
	s.mu.Unlock()
	return v, false
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	s := m.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}

// Len returns the number of stored keys. It locks each shard in turn,
// so the count is a consistent sum only when no writer is running.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Iteration
// order is unspecified; each shard is read-locked only while being
// walked, so fn must not call back into the same shard's writers.
func (m *Map[K, V]) Range(fn func(K, V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
