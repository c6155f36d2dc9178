package shell

import (
	"crypto/sha256"
	"sync/atomic"

	"cloudeval/internal/memo"
)

// The AST cache: scripts are content-addressed by digest and compiled
// exactly once per process. CloudEval-YAML runs the same corpus of unit-test
// scripts for every (model, answer) pair, so on the cold evaluation
// path each script would otherwise be re-lexed and re-parsed thousands
// of times. Cached programs are shared across goroutines; this is safe
// because the AST is immutable after Parse — every piece of mutable
// interpreter state (variables, the virtual FS, step counts, exit
// flags) lives in the Interp, never in the nodes. Parse errors are
// cached too, so a malformed script is also diagnosed only once.
// The entry cap comfortably holds the benchmark's scripts and their
// substitution bodies; see the memo package for the overflow story.

type parseOutcome struct {
	prog *program
	err  error
}

var (
	astCacheOn atomic.Bool
	astCache   = memo.NewSharded[[sha256.Size]byte, *parseOutcome](memo.HashDigest, 1<<15)
)

func init() { astCacheOn.Store(true) }

// SetASTCache toggles the process-wide parse cache and returns the
// previous setting. It exists for cold-path benchmarks and tests that
// need to measure or exercise the uncached lex/parse path; production
// callers leave it enabled.
func SetASTCache(enabled bool) (prev bool) {
	return astCacheOn.Swap(enabled)
}

// ParseCached compiles a script through the content-addressed AST
// cache: each distinct script text is lexed and parsed exactly once
// per process. The returned program is shared and must be treated as
// immutable (the interpreter already does).
func ParseCached(src string) (*program, error) {
	if !astCacheOn.Load() {
		return Parse(src)
	}
	o, _, _ := astCache.Do(sha256.Sum256([]byte(src)), func() (*parseOutcome, error) {
		prog, err := Parse(src)
		return &parseOutcome{prog: prog, err: err}, nil
	})
	return o.prog, o.err
}
