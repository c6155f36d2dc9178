package memo

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Sharded is a capped sharded singleflight memoizer. Keys hash into
// GOMAXPROCS-scaled shards, each with its own mutex and map, so
// concurrent misses and hits on different keys never serialize on one
// lock.
//
// Per-key in-flight entries give the singleflight contract: concurrent
// calls with the same key collapse into one fn call; laggards park on
// the winner's entry and share its result. A fn error is handed to
// every parked waiter but never cached — the entry is removed, so the
// next call recomputes. That is the engine's and dispatcher's shared
// requirement: a transient executor or API failure must not be frozen
// into the cache. Caches of pure computations whose failures are
// deterministic (parse errors) fold the error into the value instead
// and return a nil error, so the failure is diagnosed once.
//
// The zero value is not usable; construct with NewSharded.
type Sharded[K comparable, V any] struct {
	shards []paddedShard[K, V]
	mask   uint32
	hash   func(K) uint32
	max    int64
	// n counts entries across all shards, in-flight ones included.
	n atomic.Int64
}

// flight is one entry: in flight until wg is done, complete after.
// Waiting on a done WaitGroup is a single atomic load, so a hit on a
// completed entry costs no more than the shard lock.
type flight[V any] struct {
	wg  sync.WaitGroup
	v   V
	err error
}

type shardMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// paddedShard keeps adjacent shards on distinct cache lines so a hot
// shard's lock traffic does not false-share with its neighbors. The
// embedded shard is 16 bytes on 64-bit (mutex + map header); the pad
// rounds it up to a 64-byte line.
type paddedShard[K comparable, V any] struct {
	shardMap[K, V]
	_ [48]byte
}

// errPanicked is handed to waiters parked on a computation whose fn
// panicked; the panicking caller itself propagates the panic.
var errPanicked = errors.New("memo: in-flight computation panicked")

// NewSharded builds a sharded singleflight cache keyed by hash and
// capped at roughly max entries. The cap is precise up to
// concurrency: Len never exceeds max + P − 1, where P is the peak
// number of goroutines concurrently inside Do — each can pass the
// capacity check at most once before the counter catches up, so the
// overshoot is bounded by worker count, not by traffic.
func NewSharded[K comparable, V any](hash func(K) uint32, max int64) *Sharded[K, V] {
	n := shardCount()
	s := &Sharded[K, V]{
		shards: make([]paddedShard[K, V], n),
		mask:   uint32(n - 1),
		hash:   hash,
		max:    max,
	}
	for i := range s.shards {
		s.shards[i].m = make(map[K]*flight[V])
	}
	return s
}

// Do returns the cached value for key, computing and (capacity
// permitting) storing it via fn on a miss. hit reports whether this
// call was served by an existing entry — either completed or in
// flight (parked on another caller's computation) — as opposed to
// running fn itself. When fn returns an error, the entry is removed
// before waiters are released: the error is shared with every parked
// caller, but the next Do recomputes. A full cache serves the keys it
// holds and runs fn for the rest without storing the result. fn must
// be deterministic for a given key, which content-addressed keys
// guarantee.
func (s *Sharded[K, V]) Do(key K, fn func() (V, error)) (v V, err error, hit bool) {
	sh := &s.shards[s.hash(key)&s.mask].shardMap
	sh.mu.Lock()
	if fl, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		fl.wg.Wait()
		return fl.v, fl.err, true
	}
	if s.n.Load() >= s.max {
		// Full: serve what is cached, compute the rest fresh.
		sh.mu.Unlock()
		v, err = fn()
		return v, err, false
	}
	fl := new(flight[V])
	fl.wg.Add(1)
	sh.m[key] = fl
	s.n.Add(1)
	sh.mu.Unlock()

	committed := false
	defer func() {
		if !committed {
			// fn panicked: behave like an error — drop the entry so
			// future calls retry, and unpark waiters with an error.
			fl.err = errPanicked
			s.drop(sh, key)
			fl.wg.Done()
		}
	}()
	fl.v, fl.err = fn()
	committed = true
	if fl.err != nil {
		s.drop(sh, key)
	}
	fl.wg.Done()
	return fl.v, fl.err, false
}

// drop removes a failed computation's entry.
func (s *Sharded[K, V]) drop(sh *shardMap[K, V], key K) {
	sh.mu.Lock()
	delete(sh.m, key)
	s.n.Add(-1)
	sh.mu.Unlock()
}

// Len reports the number of entries, in-flight ones included. It can
// exceed the cap by at most P − 1 for P concurrent callers; see
// NewSharded.
func (s *Sharded[K, V]) Len() int { return int(s.n.Load()) }

// Shards reports the shard count (a power of two).
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }
