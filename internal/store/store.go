// Package store is the persistent, content-addressed evaluation store:
// the second cache tier under engine.Engine.UnitTest. Where the
// engine's in-memory map dies with the process, the store is an
// append-only on-disk log of (unit-test-script digest, answer digest)
// → unit-test result records, so repeated campaigns across processes —
// and across CI runs via cache restore — hit disk instead of the
// simulated cluster.
//
// The log holds two record kinds sharing one frame format: unit-test
// results (the original kind, engine.CacheStore) and generation
// results (inference.GenStore — model responses keyed by the
// generation request's content address), so one store carries a
// campaign's full warm state: a re-campaign neither generates nor
// executes anything.
//
// # Sharded layout
//
// The store is partitioned into N key-range shards (N a power of two,
// persisted in the <path>.shards meta file so routing never changes
// for an existing store): a key's leading digest byte selects its
// shard, and each shard owns its own segment file <path>.sNN, its own
// group-commit pending buffer and committer, and its own index
// stripes. Concurrent Puts to different shards land on independent
// files with independent write batches instead of serializing on one
// committer; Open replays all segments in parallel (one goroutine and
// one reusable payload buffer per shard); Compact rewrites shards
// concurrently, and compacting shard k never blocks appends to the
// others.
//
// A legacy single-file log at <path> itself — the pre-shard layout —
// is migrated once, by Open: it replays the file first (its records
// are the oldest, so segment records win conflicts), compacts every
// newest record into the shard segments, and removes the file. A
// failed migration fails Open and is retried by the next one.
//
// # On-disk format
//
// Every file — legacy log and shard segments alike — is a sequence of
// length-prefixed, checksummed records, byte-identical to the
// pre-shard format:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][JSON payload]
//
// Writes are crash-safe by construction: a record torn by a crash or a
// truncated copy fails its length or checksum check, and Open drops
// everything from the first bad frame onward (that file's tail)
// instead of failing — a torn tail in shard k loses nothing in shards
// ≠ k. Each log is append-only — a re-recorded key simply appends a
// newer record, and the newest record per key wins on replay. Compact
// rewrites each shard to one record per key (newest wins) via an
// atomic rename.
//
// Concurrency: per-shard indexes are striped behind RWMutexes, so
// warm-store reads never contend with appends or each other. Appends
// group-commit per shard: writers encode frames outside any lock,
// enqueue into the shard's pending buffer, and one of them — the
// committer — drains the whole batch with a single write syscall,
// then releases every writer whose frames it carried. A Put still
// does not return until its frame is on disk (the durability contract
// tests rely on), but N concurrent Puts to one shard cost one syscall
// instead of N, and Puts to different shards batch and flush fully
// independently.
//
// # Out-of-core index
//
// The resident index holds no payloads: each stripe maps a key to an
// {owning log, offset, frame length, payload CRC} entry, so resident
// cost per record is ~100 bytes regardless of how large its output or
// response text is. Get/GetGen pread the frame on demand, re-verify
// its checksum, decode, and serve the result through a bounded
// sharded-LRU hot cache (WithHotCacheBytes, default 256 MiB), so
// repeat reads stay in-memory fast while RSS is bounded by index size
// + cache budget, not corpus size.
//
// Compact additionally writes each shard's index as a checksummed
// binary sidecar (<segment>.idx, see snapshot.go) tied to the
// segment's byte length; Open loads the sidecar when it validates and
// scans only the frames appended after it — restart cost is O(tail),
// not O(log). A missing, stale, truncated, or corrupt sidecar falls
// back to the full scan and produces byte-identical state.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/memo"
	"cloudeval/internal/unittest"
)

// Key content-addresses one evaluation, mirroring the engine's cache
// key: the digests of the unit-test script and the candidate answer.
type Key struct {
	Test   [sha256.Size]byte
	Answer [sha256.Size]byte
}

// Record is one persisted unit-test outcome.
type Record struct {
	Passed      bool
	Output      string
	ExitCode    int
	VirtualTime time.Duration
}

// frame is the JSON payload of one on-disk record. Kind selects the
// record type: "" (absent, the original format) is a unit-test
// result, "gen" a generation result. Logs written before the
// generation kind existed replay unchanged.
type frame struct {
	Kind string `json:"kind,omitempty"`

	// Unit-test fields.
	Test        string  `json:"test,omitempty"`   // hex sha256 of the unit-test script
	Answer      string  `json:"answer,omitempty"` // hex sha256 of the answer
	Passed      bool    `json:"passed,omitempty"`
	Output      string  `json:"output,omitempty"`
	ExitCode    int     `json:"exit_code,omitempty"`
	VirtualSecs float64 `json:"virtual_secs,omitempty"`

	// Generation fields.
	Gen              string `json:"gen,omitempty"` // hex generation key
	Text             string `json:"text,omitempty"`
	PromptTokens     int    `json:"prompt_tokens,omitempty"`
	CompletionTokens int    `json:"completion_tokens,omitempty"`
	LatencyNs        int64  `json:"latency_ns,omitempty"`
}

// keyFrame is the scan-time projection of frame: only the fields that
// feed the offset index. Replay decodes into this so json.Unmarshal
// skips the payload strings (Output, Text) entirely — a
// multi-gigabyte log replays without allocating or retaining a single
// payload.
type keyFrame struct {
	Kind   string `json:"kind"`
	Test   string `json:"test"`
	Answer string `json:"answer"`
	Gen    string `json:"gen"`
}

// genKind tags generation frames.
const genKind = "gen"

const frameHeaderSize = 8

// maxPayload rejects absurd length prefixes (a torn header read as a
// huge length must not allocate gigabytes before the CRC check).
const maxPayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry is one resident index entry: where a key's newest frame lives.
// n is the full frame length, header included; sum is the payload
// CRC-32C from the frame header, re-verified on every on-demand read
// and used to recognize identical re-puts without decoding anything.
type entry struct {
	src *logFile
	off int64
	n   uint32
	sum uint32
}

// Shard-count policy: a power of two sized like memo.Sharded's
// GOMAXPROCS scaling, but clamped tighter — every shard is an open
// file, and a store's worth of parallelism saturates well below a
// cache's. The count is fixed at creation and persisted in the meta
// file; an existing store always reopens with the count it was
// created with, so key→shard routing (and therefore which segment
// file owns a record) never changes under a different GOMAXPROCS.
const (
	minShards = 8
	maxShards = 64
)

// idxStripes is the per-shard index stripe count: 4 RWMutex stripes
// per shard × ≥8 shards keeps warm-read concurrency at or above the
// pre-shard store's 32 global stripes while letting each shard own
// its stripes outright.
const idxStripes = 4

type recStripe struct {
	mu sync.RWMutex
	m  map[Key]entry
}

type genStripe struct {
	mu sync.RWMutex
	m  map[inference.Key]entry
}

// Shard routing uses the leading digest bytes; striping within a
// shard uses the second bytes so the two subdivisions stay
// independent (a shard's keys spread across all of its stripes).
func recShardOf(k Key, mask int) int           { return int(k.Test[0]^k.Answer[0]) & mask }
func recStripeOf(k Key) int                    { return int(k.Test[1]^k.Answer[1]) & (idxStripes - 1) }
func genShardOf(k inference.Key, mask int) int { return int(k[0]) & mask }
func genStripeOf(k inference.Key) int          { return int(k[1]) & (idxStripes - 1) }

// lessKeys orders unit-test keys for a deterministic compacted
// segment.
func lessKeys(a, b Key) bool {
	if c := string(a.Test[:]); c != string(b.Test[:]) {
		return c < string(b.Test[:])
	}
	return string(a.Answer[:]) < string(b.Answer[:])
}

// hotKey addresses one decoded result in the hot cache; gen
// distinguishes the two key spaces (a generation key could otherwise
// collide with a record whose digests happened to match).
type hotKey struct {
	gen  bool
	a, b [sha256.Size]byte
}

// hotHash mixes digest bytes directly — the keys are already uniform
// SHA-256 output, so four bytes of each are a perfectly good shard
// selector.
func hotHash(k hotKey) uint32 {
	return binary.LittleEndian.Uint32(k.a[4:8]) ^ binary.LittleEndian.Uint32(k.b[8:12])
}

// DefaultHotCacheBytes is the hot cache's byte budget when Open is not
// given WithHotCacheBytes: large enough that a typical campaign's
// working set is fully resident, small enough to bound RSS on stores
// that have outgrown memory.
const DefaultHotCacheBytes int64 = 256 << 20

// Option configures Open.
type Option func(*config)

type config struct {
	cacheBytes int64
}

// WithHotCacheBytes caps the hot cache's resident decoded-frame budget
// at n bytes. Zero or negative effectively disables caching (every
// read goes to disk) — useful for benchmarks and for processes that
// only append.
func WithHotCacheBytes(n int64) Option {
	return func(c *config) {
		c.cacheBytes = n
	}
}

// OpenStats describes how the last Open rebuilt the index: how much
// came from index-snapshot sidecars versus frame-by-frame scanning,
// and how long the whole replay took.
type OpenStats struct {
	// SnapshotShards counts shards whose sidecar validated and was
	// used; SnapshotFrames is the index entries they supplied without
	// touching a frame.
	SnapshotShards int
	// SnapshotFrames and ScannedFrames partition the index entries by
	// provenance: supplied by a sidecar vs decoded from the log (the
	// post-snapshot tail, sidecar-less shards, and a migrated legacy
	// file).
	SnapshotFrames int
	ScannedFrames  int
	Duration       time.Duration
}

// Store is a persistent evaluation cache sharded across per-key-range
// segment files. It is safe for concurrent use and implements
// engine.CacheStore and inference.GenStore.
type Store struct {
	path string
	segs []*segment
	mask int

	// cache holds decoded Records/Responses under a byte budget; the
	// index itself holds only offsets. Values are Record or
	// inference.Response; cost is the source frame's byte length.
	cache *memo.Bounded[hotKey, any]

	openStats OpenStats

	// compactMu serializes Compact calls (each shard's compaction also
	// takes that shard's log lock; appends to other shards proceed).
	compactMu sync.Mutex
}

// segPath names shard i's segment file.
func segPath(path string, i int) string { return fmt.Sprintf("%s.s%02d", path, i) }

// idxPath names shard i's index-snapshot sidecar.
func idxPath(path string, i int) string { return segPath(path, i) + ".idx" }

// metaPath names the shard-count meta file.
func metaPath(path string) string { return path + ".shards" }

// defaultShardCount picks the shard count for a new store: the
// smallest power of two at least twice GOMAXPROCS, clamped to
// [minShards, maxShards].
func defaultShardCount() int {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < minShards {
		n = minShards
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// resolveShardCount determines the shard count for the store at path:
// the meta file if present, else inferred from existing segment files
// (a crash can lose the meta file but not the renamed segments), else
// the default for a fresh store. The resolved count is (re)written to
// the meta file atomically.
func resolveShardCount(path string) (int, error) {
	if data, err := os.ReadFile(metaPath(path)); err == nil {
		n, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil || n < 1 || n > 1<<16 || n&(n-1) != 0 {
			return 0, fmt.Errorf("store: corrupt shard meta %s: %q", metaPath(path), strings.TrimSpace(string(data)))
		}
		return n, nil
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	n := defaultShardCount()
	if inferred, ok, err := inferShardCount(path); err != nil {
		return 0, err
	} else if ok {
		n = inferred
	}
	if err := writeShardMeta(path, n); err != nil {
		return 0, err
	}
	return n, nil
}

// inferShardCount scans for existing segment files and returns the
// smallest power of two covering every index found.
func inferShardCount(path string) (int, bool, error) {
	dir := filepath.Dir(path)
	prefix := filepath.Base(path) + ".s"
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	maxIdx := -1
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || strings.HasSuffix(name, ".idx") {
			continue
		}
		idx, err := strconv.Atoi(name[len(prefix):])
		if err != nil || idx < 0 {
			continue
		}
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if maxIdx < 0 {
		return 0, false, nil
	}
	n := 1
	for n <= maxIdx {
		n <<= 1
	}
	if n < minShards {
		n = minShards
	}
	return n, true, nil
}

// writeShardMeta records the shard count atomically (temp + rename),
// so a crash mid-write never leaves a torn meta file.
func writeShardMeta(path string, n int) error {
	tmp := metaPath(path) + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, metaPath(path)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Open reads (or creates) the sharded store rooted at path, rebuilding
// the offset index for every intact record: first the legacy
// single-file log at path itself if one exists (the pre-shard layout),
// then all shard segments in parallel. A shard whose index-snapshot
// sidecar validates loads its index directly and scans only the
// post-snapshot tail; anything wrong with a sidecar silently falls
// back to that shard's full scan. A truncated
// or corrupt tail in any file — the signature of a crash mid-append —
// is dropped and that file truncated back to its last intact record,
// not treated as fatal. A legacy log is then migrated: Compact copies
// its newest records into the segments and the file is removed. If
// the migration fails, Open returns the error and leaves the legacy
// file for the next Open to retry — any records already copied are
// duplicates that replay order resolves.
func Open(path string, opts ...Option) (*Store, error) {
	start := time.Now()
	cfg := config{cacheBytes: DefaultHotCacheBytes}
	for _, opt := range opts {
		opt(&cfg)
	}
	n, err := resolveShardCount(path)
	if err != nil {
		return nil, err
	}
	s := &Store{
		path:  path,
		mask:  n - 1,
		segs:  make([]*segment, n),
		cache: memo.NewBounded[hotKey, any](hotHash, cfg.cacheBytes),
	}
	for i := range s.segs {
		// O_APPEND: every flush is one write syscall that the kernel
		// positions at the true end of file, so even a second process
		// appending to the same segment (one writer per store is the
		// intended deployment, but fleets misconfigure) interleaves
		// whole batches rather than corrupting them mid-frame at a
		// stale offset.
		f, err := os.OpenFile(segPath(path, i), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			for j := 0; j < i; j++ {
				s.segs[j].lf.close()
			}
			return nil, err
		}
		s.segs[i] = newSegment(f, idxPath(path, i))
	}
	// Legacy pre-pass: replay the single-file log serially, routing
	// each record to its owning shard's index. It runs before the
	// parallel segment replay so segment records — always at least as
	// new, since appends only ever go to segments once the sharded
	// store exists — overwrite legacy ones on conflict.
	var legacy *logFile
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		if legacy, err = s.replayLegacy(); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	// Parallel replay: one goroutine per shard, each with its own
	// reusable payload buffer, each truncating its own torn tail.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, seg := range s.segs {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			errs[i] = seg.replay(s)
		}(i, seg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if legacy != nil {
				legacy.close()
			}
			s.closeFiles()
			return nil, err
		}
	}
	if legacy != nil {
		if err := s.migrateLegacy(legacy); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	for _, seg := range s.segs {
		if seg.snapFrames > 0 {
			s.openStats.SnapshotShards++
		}
		s.openStats.SnapshotFrames += seg.snapFrames
		s.openStats.ScannedFrames += seg.scanFrames
	}
	s.openStats.Duration = time.Since(start)
	return s, nil
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		seg.lf.close()
	}
}

// replayLegacy loads the pre-shard single-file log at s.path into the
// shard indexes, stopping at its first bad frame. The returned handle
// backs the index entries until migrateLegacy copies them out.
func (s *Store) replayLegacy() (*logFile, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	lf := newLogFile(f)
	if _, err := scanLog(f, 0, func(fr keyFrame, off int64, n, sum uint32) bool {
		if !s.load(lf, fr, off, n, sum) {
			return false
		}
		s.openStats.ScannedFrames++
		return true
	}); err != nil {
		lf.close()
		return nil, err
	}
	return lf, nil
}

// migrateLegacy moves every legacy-resident record into the segments:
// Compact raw-copies each key's newest frame, after which no index
// entry points at the legacy handle and the file can go.
func (s *Store) migrateLegacy(legacy *logFile) error {
	err := s.Compact()
	legacy.close()
	if err != nil {
		return fmt.Errorf("store: migrate legacy log: %w", err)
	}
	if err := os.Remove(s.path); err != nil {
		return fmt.Errorf("store: remove migrated legacy log: %w", err)
	}
	return nil
}

// load routes one scanned frame's index entry into the owning shard's
// stripe, reporting false on a malformed key (treated like a corrupt
// frame: replay stops there). Stripe locks are taken because segment
// replay goroutines run concurrently and a misplaced record (a
// segment file holding a foreign key, e.g. hand-copied files) must
// still land in its owning shard's index, where Get will look for it.
func (s *Store) load(lf *logFile, fr keyFrame, off int64, n, sum uint32) bool {
	e := entry{src: lf, off: off, n: n, sum: sum}
	switch fr.Kind {
	case genKind:
		key, err := genKeyFromHex(fr.Gen)
		if err != nil {
			return false
		}
		s.loadGen(key, e)
	default:
		key, err := keyFromHex(fr.Test, fr.Answer)
		if err != nil {
			return false
		}
		s.loadRec(key, e)
	}
	return true
}

func (s *Store) loadRec(k Key, e entry) {
	st := &s.segs[recShardOf(k, s.mask)].recs[recStripeOf(k)]
	st.mu.Lock()
	st.m[k] = e
	st.mu.Unlock()
}

func (s *Store) loadGen(k inference.Key, e entry) {
	st := &s.segs[genShardOf(k, s.mask)].gens[genStripeOf(k)]
	st.mu.Lock()
	st.m[k] = e
	st.mu.Unlock()
}

func keyFromHex(test, answer string) (Key, error) {
	var k Key
	tb, err := hex.DecodeString(test)
	if err != nil || len(tb) != sha256.Size {
		return k, fmt.Errorf("store: bad test digest %q", test)
	}
	ab, err := hex.DecodeString(answer)
	if err != nil || len(ab) != sha256.Size {
		return k, fmt.Errorf("store: bad answer digest %q", answer)
	}
	copy(k.Test[:], tb)
	copy(k.Answer[:], ab)
	return k, nil
}

func genKeyFromHex(s string) (inference.Key, error) {
	var k inference.Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return k, fmt.Errorf("store: bad generation key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

func encodeFrame(key Key, rec Record) ([]byte, error) {
	return framePayload(frame{
		Test:        hex.EncodeToString(key.Test[:]),
		Answer:      hex.EncodeToString(key.Answer[:]),
		Passed:      rec.Passed,
		Output:      rec.Output,
		ExitCode:    rec.ExitCode,
		VirtualSecs: rec.VirtualTime.Seconds(),
	})
}

func encodeGenFrame(key inference.Key, resp inference.Response) ([]byte, error) {
	return framePayload(frame{
		Kind:             genKind,
		Gen:              hex.EncodeToString(key[:]),
		Text:             resp.Text,
		PromptTokens:     resp.Usage.PromptTokens,
		CompletionTokens: resp.Usage.CompletionTokens,
		LatencyNs:        resp.Latency.Nanoseconds(),
	})
}

func framePayload(fr frame) ([]byte, error) {
	payload, err := json.Marshal(fr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf, nil
}

// readFrame preads and decodes the frame an index entry points at,
// re-verifying the length prefix and payload checksum against the
// entry before trusting a byte of it.
func (s *Store) readFrame(e entry) (frame, error) {
	var fr frame
	buf := make([]byte, e.n)
	if err := e.src.pread(buf, e.off); err != nil {
		return fr, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != e.n-frameHeaderSize ||
		binary.LittleEndian.Uint32(buf[4:8]) != e.sum ||
		crc32.Checksum(buf[frameHeaderSize:], castagnoli) != e.sum {
		return fr, errCorruptFrame
	}
	if err := json.Unmarshal(buf[frameHeaderSize:], &fr); err != nil {
		return fr, err
	}
	return fr, nil
}

// getFrame resolves an index entry to its decoded frame, riding out
// the two read races: an entry pointing into a log whose handle
// compaction just swapped out (errLogClosed — re-read the refreshed
// entry and retry), and an entry installed at enqueue time whose
// group-commit batch has not hit the file yet (drain the shard once,
// then retry the pread).
func (s *Store) getFrame(seg *segment, e entry, lookup func() (entry, bool)) (frame, bool) {
	drained := false
	for {
		fr, err := s.readFrame(e)
		if err == nil {
			return fr, true
		}
		if errors.Is(err, errLogClosed) {
			e2, ok := lookup()
			if !ok || e2 == e {
				// The store is closed, or the key vanished: give up.
				return frame{}, false
			}
			e = e2
			continue
		}
		if !drained {
			// The frame may still be in the shard's pending batch
			// (entries become visible at enqueue, durable at flush).
			// Force the flush and try once more.
			seg.mu.Lock()
			seg.drainLocked()
			seg.mu.Unlock()
			drained = true
			continue
		}
		return frame{}, false
	}
}

// Get implements engine.CacheStore: the persisted result for
// (test, answer), if any. A hot-cache hit returns immediately; a miss
// preads the record's frame from its segment, verifies and decodes
// it, and installs it in the cache.
func (s *Store) Get(test, answer [sha256.Size]byte) (unittest.Result, bool) {
	key := Key{Test: test, Answer: answer}
	hk := hotKey{a: test, b: answer}
	if v, ok := s.cache.Get(hk); ok {
		rec := v.(Record)
		return unittest.Result{
			Passed:      rec.Passed,
			Output:      rec.Output,
			ExitCode:    rec.ExitCode,
			VirtualTime: rec.VirtualTime,
		}, true
	}
	seg := s.segs[recShardOf(key, s.mask)]
	st := &seg.recs[recStripeOf(key)]
	lookup := func() (entry, bool) {
		st.mu.RLock()
		e, ok := st.m[key]
		st.mu.RUnlock()
		return e, ok
	}
	e, ok := lookup()
	if !ok {
		return unittest.Result{}, false
	}
	fr, ok := s.getFrame(seg, e, lookup)
	if !ok {
		return unittest.Result{}, false
	}
	rec := Record{
		Passed:      fr.Passed,
		Output:      fr.Output,
		ExitCode:    fr.ExitCode,
		VirtualTime: time.Duration(fr.VirtualSecs * float64(time.Second)),
	}
	s.cache.Add(hk, rec, int64(e.n))
	return unittest.Result{
		Passed:      rec.Passed,
		Output:      rec.Output,
		ExitCode:    rec.ExitCode,
		VirtualTime: rec.VirtualTime,
	}, true
}

// Put implements engine.CacheStore: persist one executed result.
// Errored executions (res.Err != nil) are never recorded — like the
// engine's in-memory tier, a transient outage must not be frozen into
// the cache. An identical re-record is a no-op so warm campaigns don't
// grow the log: JSON encoding is deterministic, so matching frame
// length + payload CRC against the resident entry recognizes the
// duplicate without reading a byte. Append failures latch into
// Err/Sync/Close rather than failing the evaluation that produced the
// result. Put returns with the record on disk (its shard's
// group-commit batch flushed).
func (s *Store) Put(test, answer [sha256.Size]byte, res unittest.Result) {
	if res.Err != nil {
		return
	}
	key := Key{Test: test, Answer: answer}
	rec := Record{
		Passed:      res.Passed,
		Output:      res.Output,
		ExitCode:    res.ExitCode,
		VirtualTime: res.VirtualTime,
	}
	buf, err := encodeFrame(key, rec)
	seg := s.segs[recShardOf(key, s.mask)]
	st := &seg.recs[recStripeOf(key)]
	if err == nil {
		sum := binary.LittleEndian.Uint32(buf[4:8])
		st.mu.RLock()
		old, ok := st.m[key]
		st.mu.RUnlock()
		if ok && old.n == uint32(len(buf)) && old.sum == sum {
			return
		}
		// The write path deliberately skips the hot cache: a campaign's
		// re-reads of its own results hit the engine's memo tier, and a
		// raw read-after-write is already correct through the pending
		// batch (install-at-enqueue + drain retry) — caching here would
		// only add allocations to every append.
		if seg.appendWait(buf, nil, func(lf *logFile, off int64) {
			st.mu.Lock()
			st.m[key] = entry{src: lf, off: off, n: uint32(len(buf)), sum: sum}
			st.mu.Unlock()
		}) {
			seg.appended.Add(1)
		}
		return
	}
	seg.appendWait(nil, err, nil)
}

// GetGen implements inference.GenStore: the persisted generation for
// the given request key, if any — hot cache first, pread on miss.
func (s *Store) GetGen(key inference.Key) (inference.Response, bool) {
	hk := hotKey{gen: true, a: key}
	if v, ok := s.cache.Get(hk); ok {
		return v.(inference.Response), true
	}
	seg := s.segs[genShardOf(key, s.mask)]
	st := &seg.gens[genStripeOf(key)]
	lookup := func() (entry, bool) {
		st.mu.RLock()
		e, ok := st.m[key]
		st.mu.RUnlock()
		return e, ok
	}
	e, ok := lookup()
	if !ok {
		return inference.Response{}, false
	}
	fr, ok := s.getFrame(seg, e, lookup)
	if !ok {
		return inference.Response{}, false
	}
	resp := inference.Response{
		Text: fr.Text,
		Usage: inference.Usage{
			PromptTokens:     fr.PromptTokens,
			CompletionTokens: fr.CompletionTokens,
		},
		Latency: time.Duration(fr.LatencyNs),
	}
	s.cache.Add(hk, resp, int64(e.n))
	return resp, true
}

// PutGen implements inference.GenStore: persist one live generation.
// An identical re-record is a no-op (recognized by frame length +
// CRC, as in Put); append failures latch into Err/Sync/Close, never
// failing the generation that produced the response — the same
// advisory contract as Put.
func (s *Store) PutGen(key inference.Key, resp inference.Response) {
	buf, err := encodeGenFrame(key, resp)
	seg := s.segs[genShardOf(key, s.mask)]
	st := &seg.gens[genStripeOf(key)]
	if err == nil {
		sum := binary.LittleEndian.Uint32(buf[4:8])
		st.mu.RLock()
		old, ok := st.m[key]
		st.mu.RUnlock()
		if ok && old.n == uint32(len(buf)) && old.sum == sum {
			return
		}
		// No hot-cache insert on the write path — see Put.
		if seg.appendWait(buf, nil, func(lf *logFile, off int64) {
			st.mu.Lock()
			st.m[key] = entry{src: lf, off: off, n: uint32(len(buf)), sum: sum}
			st.mu.Unlock()
		}) {
			seg.appended.Add(1)
		}
		return
	}
	seg.appendWait(nil, err, nil)
}

// Len reports how many distinct keys the store holds.
func (s *Store) Len() int {
	n := 0
	for _, seg := range s.segs {
		n += seg.lenRecs()
	}
	return n
}

// GenLen reports how many distinct generations the store holds.
func (s *Store) GenLen() int {
	n := 0
	for _, seg := range s.segs {
		n += seg.lenGens()
	}
	return n
}

// Appended reports how many records this handle has appended since
// Open, across all shards — the store-side mirror of the engine's
// Executed counter.
func (s *Store) Appended() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.appended.Load()
	}
	return n
}

// Flushes reports how many group-commit batches this handle has
// written since Open, across all shards. Appended()/Flushes() is the
// average batch size: 1 under serial traffic, climbing with per-shard
// append concurrency as each committer drains more frames per
// syscall.
func (s *Store) Flushes() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.flushes.Load()
	}
	return n
}

// Shards reports the store's shard count.
func (s *Store) Shards() int { return len(s.segs) }

// CacheStats snapshots the hot cache: budget, resident bytes, entry
// count, and hit/miss counters since Open.
func (s *Store) CacheStats() memo.BoundedStats { return s.cache.Stats() }

// LastOpen reports how the most recent Open rebuilt the index —
// snapshot-supplied vs scanned frames, and wall time.
func (s *Store) LastOpen() OpenStats { return s.openStats }

// Resident per-entry index cost estimates: key + entry struct + map
// bucket overhead. Estimates, not measurements — the stats surface
// reports magnitude, and the invariant that matters (payloads are not
// resident) is structural.
const (
	residentPerRec = 128
	residentPerGen = 96
)

// ResidentBytes estimates the store's resident memory: the offset
// index (which scales with key count, never payload size) plus the
// hot cache's current byte cost.
func (s *Store) ResidentBytes() int64 {
	return int64(s.Len())*residentPerRec + int64(s.GenLen())*residentPerGen + s.cache.Bytes()
}

// ShardStat is one shard's observable state: index sizes plus this
// handle's append/flush counters (their ratio is the shard's
// group-commit batching factor).
type ShardStat struct {
	Records     int   `json:"records"`
	Generations int   `json:"generations"`
	Appended    int64 `json:"appended"`
	Flushes     int64 `json:"flushes"`
}

// ShardStats snapshots every shard, in shard order. The snapshot is
// per-shard consistent, not cross-shard atomic — it is a monitoring
// surface, not a transaction.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.segs))
	for i, seg := range s.segs {
		out[i] = ShardStat{
			Records:     seg.lenRecs(),
			Generations: seg.lenGens(),
			Appended:    seg.appended.Load(),
			Flushes:     seg.flushes.Load(),
		}
	}
	return out
}

// Err reports the first append failure on any shard, if any.
func (s *Store) Err() error {
	for _, seg := range s.segs {
		if err := seg.err(); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites every shard to exactly one record per key — the
// newest — shedding superseded appends, and leaves each non-empty
// shard with a fresh index-snapshot sidecar for the next Open's fast
// path. Shards compact concurrently and independently: each rewrite
// goes to a temp file that atomically renames over that shard's
// segment, holding only that shard's log lock, so appends to other
// shards proceed throughout and a crash mid-compaction of shard k
// loses nothing — neither in shard k (the rename is atomic; the old
// segment stays until it succeeds, and the sidecar is invalidated
// before the swap so it can never describe bytes that aren't there)
// nor in shards ≠ k (their files are untouched).
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	errs := make([]error, len(s.segs))
	var wg sync.WaitGroup
	for i, seg := range s.segs {
		wg.Add(1)
		go func(i int, seg *segment) {
			defer wg.Done()
			errs[i] = seg.compact(segPath(s.path, i))
		}(i, seg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes pending batches and every segment to stable storage,
// and surfaces any latched append error.
func (s *Store) Sync() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and releases every segment. The Store must not be used
// after Close.
func (s *Store) Close() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
