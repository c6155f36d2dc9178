package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoSingleflight: concurrent misses on one key run fn exactly
// once, even when that key takes the cache's last free slot; every
// caller observes the winner's value.
func TestDoSingleflight(t *testing.T) {
	c := NewSharded[string, int](HashString, 1)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, err, _ := c.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: err = %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times for one key, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Errorf("caller %d got %d, want 42", i, r)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestDoFullCacheComputesFresh: a full cache serves existing hits and
// computes everything else without storing.
func TestDoFullCacheComputesFresh(t *testing.T) {
	c := NewSharded[int, int](intHash, 2)
	for i := 0; i < 10; i++ {
		if got, err, hit := c.Do(i, func() (int, error) { return i * i, nil }); got != i*i || err != nil || hit {
			t.Fatalf("Do(%d) = %d, %v, hit=%v", i, got, err, hit)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (cap)", c.Len())
	}
	// Stored keys still hit without recomputing.
	var called bool
	if got, _, hit := c.Do(0, func() (int, error) { called = true; return -1, nil }); got != 0 || !hit || called {
		t.Errorf("full cache missed a stored key: got %d, hit=%v, called=%v", got, hit, called)
	}
	// Keys past the cap recompute on every call.
	calls := 0
	for i := 0; i < 2; i++ {
		c.Do(9, func() (int, error) { calls++; return 81, nil })
	}
	if calls != 2 || c.Len() != 2 {
		t.Errorf("uncached key computed %d times (want 2), Len = %d (want 2)", calls, c.Len())
	}
}

// TestLenBoundUnderConcurrentInserts is the documented cap contract:
// with P goroutines hammering distinct keys, Len never exceeds
// max + P − 1 — the overshoot is bounded by worker count, not traffic.
func TestLenBoundUnderConcurrentInserts(t *testing.T) {
	const max = 256
	c := NewSharded[int, int](intHash, max)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 16 // hammer with real concurrency even on 1-core CI
	}
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := w*perWorker + i // all distinct
				c.Do(key, func() (int, error) { return key, nil })
			}
		}(w)
	}
	wg.Wait()
	bound := max + workers - 1
	if got := c.Len(); got > bound {
		t.Errorf("Len = %d after concurrent inserts, want <= %d (max %d + %d workers)", got, bound, max, workers)
	}
	if got := c.Len(); got < max {
		t.Errorf("Len = %d, cache stopped short of its cap %d", got, max)
	}
}

// TestDoPanicUnparksWaiters: a panicking fn must not leave waiters
// parked forever or freeze a broken entry in. A waiter parked on the
// panicking computation is released with an error.
func TestDoPanicUnparksWaiters(t *testing.T) {
	c := NewSharded[string, int](HashString, 10)
	started, release := make(chan struct{}), make(chan struct{})
	type outcome struct {
		err error
		hit bool
	}
	waiter := make(chan outcome)
	go func() {
		defer func() { recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	go func() {
		_, err, hit := c.Do("k", func() (int, error) { return 7, nil })
		waiter <- outcome{err, hit}
	}()
	// Give the waiter time to park, then let the winner panic. A
	// waiter that parked gets errPanicked; one that arrives after the
	// panic finds no entry and computes itself. Either way it returns.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if o := <-waiter; o.hit && o.err != errPanicked || !o.hit && o.err != nil {
		t.Errorf("waiter err = %v (hit=%v), want %v when parked, nil otherwise", o.err, o.hit, errPanicked)
	}
	// The panicked entry was dropped: the next call (or the late
	// waiter) recomputes and stores 7.
	if got, err, _ := c.Do("k", func() (int, error) { return 7, nil }); got != 7 || err != nil {
		t.Errorf("post-panic Do = %d, %v; want 7", got, err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after recovery, want 1", c.Len())
	}
}

// TestShardedSingleflight: concurrent misses on one key run fn exactly
// once; every caller observes the winner's value and all but the
// winner report a hit.
func TestShardedSingleflight(t *testing.T) {
	s := NewSharded[string, int](HashString, 1<<10)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err, hit := s.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if got := hits.Load(); got != workers-1 {
		t.Errorf("hits = %d, want %d (everyone but the winner)", got, workers-1)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestShardedErrorsNeverCached: an errored computation is shared with
// parked waiters but removed before they are released — the next call
// recomputes.
func TestShardedErrorsNeverCached(t *testing.T) {
	s := NewSharded[string, int](HashString, 1<<10)
	boom := errors.New("transient")
	if _, err, _ := s.Do("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s.Len() != 0 {
		t.Fatalf("errored entry cached: Len = %d", s.Len())
	}
	v, err, hit := s.Do("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || hit {
		t.Errorf("retry Do = %d, %v, hit=%v; want 9, nil, false", v, err, hit)
	}
}

// TestShardedConcurrentDistinctKeys hammers many keys across shards
// under the race detector: every key computes exactly once.
func TestShardedConcurrentDistinctKeys(t *testing.T) {
	s := NewSharded[string, int](HashString, 1<<10)
	const keys = 512
	var calls [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%d", i)
				v, err, _ := s.Do(key, func() (int, error) {
					calls[i].Add(1)
					return i, nil
				})
				if err != nil || v != i {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("key %d computed %d times, want 1", i, got)
		}
	}
	if s.Len() != keys {
		t.Errorf("Len = %d, want %d", s.Len(), keys)
	}
	if n := s.Shards(); n&(n-1) != 0 || n < 8 {
		t.Errorf("Shards() = %d, want a power of two >= 8", n)
	}
}
