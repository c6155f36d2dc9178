package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/store"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// allocStride picks the fixed allocation sample: every allocStride-th
// problem of the unpermuted corpus, under every model that answers it.
const allocStride = 57

// allocPass counts heap allocations per layer call over a fixed sample
// of pairs, serially on one goroutine with one P and the collector off,
// so the counts repeat exactly from run to run. It reads
// runtime.ReadMemStats around each call: ReadMemStats flushes the
// per-P allocation caches, so its Mallocs counter is exact, whereas
// runtime/metrics' /gc/heap/allocs:objects counts small objects only
// when their span leaves a per-P cache and lags by up to a span.
//
// The sample is scored twice and only the second pass counts, so
// process-wide caches (parsed scripts, prompt digests, environment
// pools) are in the same warm state every run; engine.unit_test is
// therefore the cache-hit path a warm campaign takes. Store calls run
// against fresh stores under dir: puts into an empty store, then gets
// after reopening it, so every get reads and decodes its frame.
func allocPass(dir string) (map[string]float64, error) {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)

	corpus := augment.ExpandCorpus(dataset.Generate())
	type pair struct {
		model llm.Model
		p     dataset.Problem
	}
	var sample []pair
	for i := 0; i < len(corpus); i += allocStride {
		for _, m := range llm.Models {
			if m.EnglishOnly && corpus[i].Variant == dataset.Translated {
				continue
			}
			sample = append(sample, pair{m, corpus[i]})
		}
	}

	ctx := context.Background()
	sim := inference.NewSim(llm.Models)
	gen := inference.NewDispatcher(sim, inference.WithoutGenCache())
	eng := engine.New(engine.WithWorkers(1))
	var refs refCache

	total := map[string]uint64{}
	calls := map[string]uint64{}
	counting := false
	var before, after runtime.MemStats
	measure := func(name string, f func()) {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if counting {
			total[name] += after.Mallocs - before.Mallocs
			calls[name]++
		}
	}

	type stored struct {
		test, answer [sha256.Size]byte
		gen          inference.Key
		res          unittest.Result
		resp         inference.Response
	}
	records := make([]stored, len(sample))
	for pass := 0; pass < 2; pass++ {
		counting = pass == 1
		for i, pr := range sample {
			req := inference.Request{Model: pr.model.Name, Problem: pr.p}
			var resp inference.Response
			var err error
			measure("inference.provider", func() { resp, err = sim.Generate(ctx, req) })
			if err != nil {
				return nil, fmt.Errorf("sample generation: %w", err)
			}
			measure("inference.generate", func() { resp, err = gen.Generate(ctx, req) })
			if err != nil {
				return nil, fmt.Errorf("sample generation: %w", err)
			}
			var answer string
			measure("llm.postprocess", func() { answer = llm.Postprocess(resp.Text) })
			ref := refs.get(pr.p)
			measure("textmetrics.bleu", func() { ref.bleu.Score(answer) })
			measure("textmetrics.edit_distance", func() { textmetrics.EditDistanceScore(answer, ref.clean) })
			measure("textmetrics.exact_match", func() { textmetrics.ExactMatch(answer, ref.clean) })
			measure("yamlmatch.kv_exact", func() { yamlmatch.KVExactMatch(answer, ref.clean) })
			measure("yamlmatch.kv_wildcard", func() { yamlmatch.KVWildcardMatch(answer, pr.p.ReferenceYAML) })
			var res unittest.Result
			measure("unittest.run", func() { res = unittest.Run(pr.p, answer) })
			measure("engine.unit_test", func() { eng.UnitTest(pr.p, answer) })
			records[i] = stored{
				test:   sha256.Sum256([]byte(pr.p.UnitTest)),
				answer: sha256.Sum256([]byte(answer)),
				gen:    req.Key(),
				res:    res,
				resp:   resp,
			}
		}

		path := fmt.Sprintf("%s.%d", dir, pass)
		st, err := store.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open alloc store: %w", err)
		}
		for _, r := range records {
			measure("store.put", func() { st.Put(r.test, r.answer, r.res) })
			measure("store.put_gen", func() { st.PutGen(r.gen, r.resp) })
		}
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close alloc store: %w", err)
		}
		if st, err = store.Open(path); err != nil {
			return nil, fmt.Errorf("reopen alloc store: %w", err)
		}
		for _, r := range records {
			measure("store.get", func() { st.Get(r.test, r.answer) })
			measure("store.get_gen", func() { st.GetGen(r.gen) })
		}
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close alloc store: %w", err)
		}
		removeStore(path)
	}

	layers := make(map[string]float64, len(allocLayers))
	for _, name := range allocLayers {
		layers[name+".allocs_per_call"] = ratio(float64(total[name]), float64(calls[name]))
	}
	return layers, nil
}
