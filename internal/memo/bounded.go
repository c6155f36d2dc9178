package memo

import (
	"sync"
	"sync/atomic"
)

// Bounded is a byte-budgeted sharded LRU cache: the hot tier in front
// of an out-of-core structure (the persistent store's on-demand frame
// reads). Where Sharded caps its entry count and stops storing once
// full, Bounded holds resident memory under a fixed byte budget
// regardless of how much passes through it: every entry carries a
// caller-supplied cost, and inserting past the budget evicts
// least-recently-used entries until the new one fits.
//
// The budget is divided evenly across the shards, so eviction never
// takes a global lock: a hot key in one shard cannot pin memory
// another shard needs, and concurrent Gets on different shards never
// serialize. An entry costlier than a whole shard's budget is not
// cached at all — admitting it would evict the entire shard to hold
// one element the next eviction removes anyway.
//
// The zero value is not usable; construct with NewBounded.
type Bounded[K comparable, V any] struct {
	shards []boundedShard[K, V]
	mask   uint32
	hash   func(K) uint32
	// perShard is the byte budget each shard enforces independently.
	perShard int64
	capacity int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// bnode is one cache entry threaded on its shard's LRU list.
type bnode[K comparable, V any] struct {
	key        K
	v          V
	cost       int64
	prev, next *bnode[K, V]
}

type boundedShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*bnode[K, V]
	// head is the most recently used entry, tail the eviction victim.
	head, tail *bnode[K, V]
	bytes      int64
	_          [24]byte // keep neighboring shards off one cache line
}

// NewBounded builds a bounded LRU cache keyed by hash, holding at most
// capBytes of entry cost. The shard count follows the package policy
// (power of two scaled to GOMAXPROCS, in [8, 512]); capBytes splits
// evenly across shards. A capBytes below the shard count still grants
// each shard one byte, degenerating to a cache that admits nothing —
// legal, and useful for forcing the uncached path in benchmarks.
func NewBounded[K comparable, V any](hash func(K) uint32, capBytes int64) *Bounded[K, V] {
	n := shardCount()
	per := capBytes / int64(n)
	if per < 1 {
		per = 1
	}
	b := &Bounded[K, V]{
		shards:   make([]boundedShard[K, V], n),
		mask:     uint32(n - 1),
		hash:     hash,
		perShard: per,
		capacity: per * int64(n),
	}
	for i := range b.shards {
		b.shards[i].m = make(map[K]*bnode[K, V])
	}
	return b
}

// Get returns the cached value for key, marking it most recently used.
func (b *Bounded[K, V]) Get(key K) (V, bool) {
	sh := &b.shards[b.hash(key)&b.mask]
	sh.mu.Lock()
	nd, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		b.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.moveToFront(nd)
	v := nd.v
	sh.mu.Unlock()
	b.hits.Add(1)
	return v, true
}

// Add inserts (or refreshes) key with the given byte cost, evicting
// LRU entries until the shard is back under budget. Entries costlier
// than a shard's whole budget are silently not cached.
func (b *Bounded[K, V]) Add(key K, v V, cost int64) {
	if cost < 1 {
		cost = 1
	}
	if cost > b.perShard {
		return
	}
	sh := &b.shards[b.hash(key)&b.mask]
	sh.mu.Lock()
	if nd, ok := sh.m[key]; ok {
		sh.bytes += cost - nd.cost
		nd.v, nd.cost = v, cost
		sh.moveToFront(nd)
	} else {
		nd := &bnode[K, V]{key: key, v: v, cost: cost}
		sh.m[key] = nd
		sh.pushFront(nd)
		sh.bytes += cost
	}
	for sh.bytes > b.perShard && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, victim.key)
		sh.bytes -= victim.cost
	}
	sh.mu.Unlock()
}

func (sh *boundedShard[K, V]) pushFront(nd *bnode[K, V]) {
	nd.prev = nil
	nd.next = sh.head
	if sh.head != nil {
		sh.head.prev = nd
	}
	sh.head = nd
	if sh.tail == nil {
		sh.tail = nd
	}
}

func (sh *boundedShard[K, V]) unlink(nd *bnode[K, V]) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		sh.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		sh.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
}

func (sh *boundedShard[K, V]) moveToFront(nd *bnode[K, V]) {
	if sh.head == nd {
		return
	}
	sh.unlink(nd)
	sh.pushFront(nd)
}

// BoundedStats is a Bounded cache's observable state.
type BoundedStats struct {
	Capacity int64 // total byte budget across shards
	Bytes    int64 // current resident entry cost
	Entries  int
	Hits     int64
	Misses   int64
}

// Stats snapshots the cache counters. Per-shard consistent, not
// cross-shard atomic — a monitoring surface.
func (b *Bounded[K, V]) Stats() BoundedStats {
	st := BoundedStats{
		Capacity: b.capacity,
		Hits:     b.hits.Load(),
		Misses:   b.misses.Load(),
	}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		st.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return st
}

// Bytes reports the current resident entry cost across all shards.
func (b *Bounded[K, V]) Bytes() int64 {
	var n int64
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Len reports the entry count across all shards.
func (b *Bounded[K, V]) Len() int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Capacity reports the total byte budget.
func (b *Bounded[K, V]) Capacity() int64 { return b.capacity }
