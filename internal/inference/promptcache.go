package inference

import (
	"bytes"
	"crypto/sha256"
	"sync"

	"cloudeval/internal/dataset"
	"cloudeval/internal/memo"
	"cloudeval/internal/prompt"
	"cloudeval/internal/scenario"
	"cloudeval/internal/textmetrics"
)

// promptKey identifies a rendered prompt by content. The prompt text
// is a pure function of the category's scenario hint, the few-shot
// count, the question, and the context YAML (prompt.Write consumes
// nothing else of the problem), so two problems with equal fields
// here render byte-identical prompts — and share one cache entry.
// Keying by content rather than problem identity is what lets a
// campaign's simplified variants (same question, same context) reuse
// the original's digest and token count.
type promptKey struct {
	hint     string
	question string
	context  string
	shots    int
}

// promptInfo is everything the hot path needs from a rendered prompt
// without rendering it: the SHA-256 of the text (the cache-key
// component) and its estimated token count (the usage meter).
type promptInfo struct {
	digest [sha256.Size]byte
	tokens int
}

// promptInfos caches prompt digests and token counts process-wide.
// Request.Key runs on every generation including cache hits, and the
// sim provider meters every live call, so before this cache a full
// Table 4 campaign re-hashed and re-tokenized the same few hundred
// prompts tens of thousands of times. The cap bounds a long-lived
// daemon fed adversarial distinct prompts; a full cache degrades to
// computing fresh, never to unbounded memory.
var promptInfos = memo.NewSharded[promptKey, promptInfo](promptHash, 1<<14)

// promptHash mixes the FNV-1a hashes of the key's variable fields; the
// hint and shot count take few values and add nothing to the spread.
func promptHash(k promptKey) uint32 {
	return memo.HashString(k.question) ^ memo.HashString(k.context)*16777619
}

// promptBufs pools the scratch buffers prompts render into on a
// promptInfos miss — the only time a prompt is materialized outside a
// live HTTP call.
var promptBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WarmPrompts primes the prompt cache for every problem at the given
// shot counts in one pass over the corpus — called at campaign start
// so the parallel phase reads a warm cache instead of singleflighting
// the first render of each prompt across workers. Every request key
// and every sim usage meter consumes these entries.
func WarmPrompts(problems []dataset.Problem, shots ...int) {
	if len(shots) == 0 {
		shots = []int{0}
	}
	for _, p := range problems {
		for _, s := range shots {
			promptInfoFor(p, s)
		}
	}
}

// promptInfoFor returns the digest and token estimate of
// prompt.Build(p, shots), rendering the text at most once per unique
// prompt content. TestPromptInfoMatchesBuild pins it to the
// uncached definitions.
func promptInfoFor(p dataset.Problem, shots int) promptInfo {
	if shots < 0 {
		shots = 0
	}
	if shots > len(prompt.DefaultShots) {
		shots = len(prompt.DefaultShots)
	}
	key := promptKey{
		hint:     scenario.For(p.Category).PromptHint,
		question: p.Question,
		context:  p.ContextYAML,
		shots:    shots,
	}
	info, _, _ := promptInfos.Do(key, func() (promptInfo, error) {
		buf := promptBufs.Get().(*bytes.Buffer)
		buf.Reset()
		prompt.Write(buf, p, shots)
		info := promptInfo{
			digest: sha256.Sum256(buf.Bytes()),
			tokens: textmetrics.EstimateTokens(buf.String()),
		}
		promptBufs.Put(buf)
		return info, nil
	})
	return info
}
