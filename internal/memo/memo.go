// Package memo holds the shared memoization building blocks for the
// process-wide content-addressed caches on the benchmark's hot paths.
//
// Two shapes ship:
//
//   - Sharded, a capped sharded singleflight memoizer behind every
//     in-process memo table: the engine's unit-test executions, the
//     dispatcher's provider generations, and the process-global parse
//     and digest caches (shell ASTs, yamlx documents, envoy
//     bootstraps, jsonpath programs, kind spellings, content and
//     prompt digests). Each maps an immutable key — usually a content
//     digest or the content itself — to an immutable outcome computed
//     once.
//   - Bounded, a byte-budgeted sharded LRU: the hot tier in front of
//     the persistent store's on-demand frame reads.
//
// Every Sharded cache has an entry cap: most of them are fed by
// model-generated text or request bodies (candidate answers, sampled
// generations, corrupted kinds), which in a long-lived cloudevald
// daemon is unbounded. A full cache keeps serving hits for what it
// already holds and computes everything else fresh — performance
// degrades to the uncached path, memory does not grow.
package memo

import (
	"encoding/binary"
	"runtime"
)

// shardCount is the shard policy both memoizers share: the smallest
// power of two at least four times GOMAXPROCS, clamped to [8, 512],
// fixed at construction.
func shardCount() int {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) && n < 512 {
		n <<= 1
	}
	return n
}

// HashString is the shard hash for string keys: 32-bit FNV-1a.
func HashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// HashDigest is the shard hash for content-digest keys: the digest's
// leading four bytes, uniformly distributed by construction.
func HashDigest[K ~[32]byte](k K) uint32 {
	return binary.LittleEndian.Uint32(k[:4])
}
