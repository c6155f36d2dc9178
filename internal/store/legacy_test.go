package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
)

// legacyFrame mirrors the on-disk JSON payload the pre-shard writer
// produced, synthesized here byte-for-byte (field order and omitempty
// behavior match the historical layout) so the compatibility tests do
// not depend on the current writer at all.
type legacyFrame struct {
	Kind             string  `json:"kind,omitempty"`
	Test             string  `json:"test,omitempty"`
	Answer           string  `json:"answer,omitempty"`
	Passed           bool    `json:"passed,omitempty"`
	Output           string  `json:"output,omitempty"`
	ExitCode         int     `json:"exit_code,omitempty"`
	VirtualSecs      float64 `json:"virtual_secs,omitempty"`
	Gen              string  `json:"gen,omitempty"`
	Text             string  `json:"text,omitempty"`
	PromptTokens     int     `json:"prompt_tokens,omitempty"`
	CompletionTokens int     `json:"completion_tokens,omitempty"`
	LatencyNs        int64   `json:"latency_ns,omitempty"`
}

var legacyCRC = crc32.MakeTable(crc32.Castagnoli)

// appendLegacyFrame encodes one record in the single-file log format:
// [4-byte LE length][4-byte LE CRC-32C][JSON payload].
func appendLegacyFrame(t testing.TB, buf *bytes.Buffer, fr legacyFrame) {
	t.Helper()
	payload, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, legacyCRC))
	buf.Write(hdr[:])
	buf.Write(payload)
}

func legacyUnitFrame(test, answer string, res unittest.Result) legacyFrame {
	tk, ak := digests(test, answer)
	return legacyFrame{
		Test:        hex.EncodeToString(tk[:]),
		Answer:      hex.EncodeToString(ak[:]),
		Passed:      res.Passed,
		Output:      res.Output,
		ExitCode:    res.ExitCode,
		VirtualSecs: res.VirtualTime.Seconds(),
	}
}

func legacyGenFrame(key inference.Key, resp inference.Response) legacyFrame {
	return legacyFrame{
		Kind:             "gen",
		Gen:              hex.EncodeToString(key[:]),
		Text:             resp.Text,
		PromptTokens:     resp.Usage.PromptTokens,
		CompletionTokens: resp.Usage.CompletionTokens,
		LatencyNs:        resp.Latency.Nanoseconds(),
	}
}

// writeLegacyLog synthesizes a pre-shard single-file store at path
// holding n unit-test records (keys legacy-test-i/legacy-answer-i),
// one superseded duplicate of key 0, and g generation records.
func writeLegacyLog(t *testing.T, path string, n, g int) {
	t.Helper()
	var buf bytes.Buffer
	// A stale first record for key 0: replay must resolve newest-wins
	// within the legacy file itself.
	appendLegacyFrame(t, &buf, legacyUnitFrame("legacy-test-0", "legacy-answer-0",
		unittest.Result{Passed: false, Output: "stale first run"}))
	for i := 0; i < n; i++ {
		appendLegacyFrame(t, &buf, legacyUnitFrame(
			fmt.Sprintf("legacy-test-%d", i), fmt.Sprintf("legacy-answer-%d", i),
			unittest.Result{Passed: true, Output: fmt.Sprintf("out-%d", i), VirtualTime: time.Duration(i) * time.Second}))
	}
	for i := 0; i < g; i++ {
		key := inference.Key(sha256.Sum256([]byte(fmt.Sprintf("legacy-gen-%d", i))))
		appendLegacyFrame(t, &buf, legacyGenFrame(key, inference.Response{
			Text:    fmt.Sprintf("kind: Pod # %d\n", i),
			Usage:   inference.Usage{PromptTokens: 100 + i, CompletionTokens: 30 + i},
			Latency: time.Duration(i+1) * time.Millisecond,
		}))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySingleFileLogReplays is the backward-compatibility
// contract: a store written in the pre-shard single-file layout opens
// transparently — every unit-test and generation record is visible,
// newest-wins holds within the legacy file, and Open has migrated the
// records into the shard segments and removed the legacy file.
func TestLegacySingleFileLogReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	const records, gens = 40, 10
	writeLegacyLog(t, path, records, gens)

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != records || s.GenLen() != gens {
		t.Fatalf("Len/GenLen = %d/%d, want %d/%d", s.Len(), s.GenLen(), records, gens)
	}
	for i := 0; i < records; i++ {
		tk, ak := digests(fmt.Sprintf("legacy-test-%d", i), fmt.Sprintf("legacy-answer-%d", i))
		got, ok := s.Get(tk, ak)
		if !ok || !got.Passed || got.Output != fmt.Sprintf("out-%d", i) {
			t.Fatalf("legacy record %d = %+v, %v", i, got, ok)
		}
	}
	for i := 0; i < gens; i++ {
		key := inference.Key(sha256.Sum256([]byte(fmt.Sprintf("legacy-gen-%d", i))))
		got, ok := s.GetGen(key)
		if !ok || got.Text != fmt.Sprintf("kind: Pod # %d\n", i) {
			t.Fatalf("legacy generation %d = %+v, %v", i, got, ok)
		}
	}

	// Migrated, not read through: the legacy log is gone after Open,
	// and new appends land in shard segments.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present after Open (stat err %v)", err)
	}
	tk, ak := digests("new-test", "new-answer")
	s.Put(tk, ak, unittest.Result{Passed: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopen sees migrated and newly appended records together.
	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != records+1 {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), records+1)
	}
	if _, ok := s2.Get(tk, ak); !ok {
		t.Fatal("post-upgrade append lost on reopen")
	}
}

// TestLegacyRecordSupersededBySegmentAppend pins the conflict rule: a
// key present in the legacy log and re-recorded through the sharded
// store must serve the newer (segment) value after reopen — segments
// replay after the legacy pre-pass.
func TestLegacyRecordSupersededBySegmentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	writeLegacyLog(t, path, 8, 0)

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tk, ak := digests("legacy-test-3", "legacy-answer-3")
	newer := unittest.Result{Passed: false, Output: "superseded by re-run", ExitCode: 7}
	s.Put(tk, ak, newer)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get(tk, ak); !ok || got != newer {
		t.Fatalf("Get = %+v, %v; want the segment record %+v to win over legacy", got, ok, newer)
	}
}

// TestLegacyCompactMigratesToShardedLayout: Open on a legacy log
// rewrites every record into the shard segments and removes the
// single-file log. Everything stays visible in memory, after a later
// Compact, and across a reopen.
func TestLegacyCompactMigratesToShardedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	const records, gens = 24, 6
	writeLegacyLog(t, path, records, gens)

	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy log still present after Open (stat err %v)", err)
	}
	var segBytes int64
	for _, seg := range segmentPaths(t, path) {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		segBytes += fi.Size()
	}
	if segBytes == 0 {
		t.Fatal("no segment bytes after migrating Open")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != records || s.GenLen() != gens {
		t.Fatalf("post-compact Len/GenLen = %d/%d, want %d/%d", s.Len(), s.GenLen(), records, gens)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != records || s2.GenLen() != gens {
		t.Fatalf("reopened Len/GenLen = %d/%d, want %d/%d", s2.Len(), s2.GenLen(), records, gens)
	}
	for i := 0; i < records; i++ {
		tk, ak := digests(fmt.Sprintf("legacy-test-%d", i), fmt.Sprintf("legacy-answer-%d", i))
		if got, ok := s2.Get(tk, ak); !ok || !got.Passed || got.Output != fmt.Sprintf("out-%d", i) {
			t.Fatalf("migrated record %d = %+v, %v", i, got, ok)
		}
	}
	for i := 0; i < gens; i++ {
		key := inference.Key(sha256.Sum256([]byte(fmt.Sprintf("legacy-gen-%d", i))))
		if _, ok := s2.GetGen(key); !ok {
			t.Fatalf("migrated generation %d lost", i)
		}
	}
}

// TestLegacyTornTailDropped: a legacy log with a crash-torn tail
// opens cleanly, dropping only the torn record.
func TestLegacyTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.store")
	writeLegacyLog(t, path, 8, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the final frame.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("Open on torn legacy log: %v", err)
	}
	defer s.Close()
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7 (torn final record dropped)", s.Len())
	}
	tk, ak := digests("legacy-test-7", "legacy-answer-7")
	if _, ok := s.Get(tk, ak); ok {
		t.Fatal("torn legacy record served")
	}
}

// FuzzOpenLegacy drives the frame decoder through the legacy migration
// path: any bytes written as a pre-shard log must open without error,
// leave no legacy file behind, and reopen to the same record counts.
func FuzzOpenLegacy(f *testing.F) {
	var valid bytes.Buffer
	appendLegacyFrame(f, &valid, legacyUnitFrame("fuzz-test", "fuzz-answer",
		unittest.Result{Passed: true, Output: "ok", VirtualTime: time.Second}))
	appendLegacyFrame(f, &valid, legacyGenFrame(inference.Key(sha256.Sum256([]byte("fuzz-gen"))),
		inference.Response{Text: "kind: Pod\n", Usage: inference.Usage{PromptTokens: 12}}))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5]) // torn final frame
	badCRC := bytes.Clone(valid.Bytes())
	badCRC[len(badCRC)-1] ^= 0xff // final payload no longer matches its CRC
	f.Add(badCRC)
	oversized := make([]byte, 8)
	binary.LittleEndian.PutUint32(oversized, 64<<20+1) // one past maxPayload
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "eval.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("legacy log still present after Open (stat err %v)", err)
		}
		recs, gens := s.Len(), s.GenLen()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := store.Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if s2.Len() != recs || s2.GenLen() != gens {
			t.Fatalf("reopened Len/GenLen = %d/%d, want %d/%d", s2.Len(), s2.GenLen(), recs, gens)
		}
	})
}
