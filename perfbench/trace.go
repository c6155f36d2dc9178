package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/textmetrics"
	"cloudeval/internal/unittest"
	"cloudeval/internal/yamlmatch"
)

// span is one call across a layer boundary. Trace identifies the
// campaign pair, pass@k sample or service request the call served;
// Parent is the span that made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Attr is the unit test's workload family or the server route.
	Attr   string `json:"attr,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// spanRef names a span as the cause of later calls.
type spanRef struct{ id, trace int64 }

// tracer keeps every span in memory until the run aggregates them.
// Spans are recorded only from this package, around calls into the
// program's exported functions and through its own interfaces.
type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	traces atomic.Int64

	mu    sync.Mutex
	spans []span

	// links maps a call's arguments to the span that made the call, for
	// interfaces that carry no context (engine.Executor, engine.CacheStore,
	// inference.GenStore): the caller links its arguments before calling
	// into the layer and unlinks them after.
	links sync.Map

	// queueWait sums, over campaign items, the time from the end of
	// generation to the start of execution.
	queueWait atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reset drops the spans recorded so far, such as a warm-up's.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.queueWait.Store(0)
}

// activeSpan is a span that has started and not yet ended.
type activeSpan struct {
	t  *tracer
	s  span
	at time.Time
}

func (t *tracer) start(name string, cause spanRef) activeSpan {
	return activeSpan{t: t, s: span{ID: t.ids.Add(1), Parent: cause.id, Trace: cause.trace, Name: name}, at: time.Now()}
}

// root starts a span for a new trace.
func (t *tracer) root(name string) activeSpan {
	return t.start(name, spanRef{trace: t.traces.Add(1)})
}

func (a activeSpan) ref() spanRef { return spanRef{id: a.s.ID, trace: a.s.Trace} }

func (a activeSpan) end() { a.endWith("", false) }

func (a activeSpan) endWith(attr string, failed bool) {
	now := time.Now()
	a.s.Attr, a.s.Failed = attr, failed
	a.s.Start, a.s.End = a.at.Sub(a.t.epoch), now.Sub(a.t.epoch)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

func (t *tracer) link(key any, ref spanRef)   { t.links.Store(key, ref) }
func (t *tracer) unlink(key any, ref spanRef) { t.links.CompareAndDelete(key, ref) }

// cause finds the span that linked key; an unlinked call (one made
// from inside the program, such as a server handler) is a root.
func (t *tracer) cause(key any) spanRef {
	if v, ok := t.links.Load(key); ok {
		return v.(spanRef)
	}
	return spanRef{trace: t.traces.Add(1)}
}

// execLink and storeLink key the links for the executor and the result
// store, by the arguments the engine passes them.
type execLink struct{ problem, answer string }
type storeLink struct{ test, answer [sha256.Size]byte }

// spanCtxKey carries the generate span to the provider through the
// context the dispatcher passes on.
type spanCtxKey struct{}

// tracedProvider wraps an inference.Provider.
type tracedProvider struct {
	inference.Provider
	t *tracer
}

func (p tracedProvider) Generate(ctx context.Context, req inference.Request) (inference.Response, error) {
	cause, _ := ctx.Value(spanCtxKey{}).(spanRef)
	sp := p.t.start("inference.provider", cause)
	resp, err := p.Provider.Generate(ctx, req)
	sp.endWith("", err != nil)
	return resp, err
}

// tracedExec wraps an engine.Executor.
type tracedExec struct {
	engine.Executor
	t *tracer
}

func (e tracedExec) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	sp := e.t.start("unittest.run", e.t.cause(execLink{p.ID, answer}))
	res := e.Executor.RunUnitTest(p, answer)
	sp.endWith(string(p.Category), res.Err != nil)
	return res
}

// tracedStore wraps a store.Store as both engine.CacheStore and
// inference.GenStore.
type tracedStore struct {
	s *store.Store
	t *tracer
}

func (ts tracedStore) Get(test, answer [sha256.Size]byte) (unittest.Result, bool) {
	sp := ts.t.start("store.get", ts.t.cause(storeLink{test, answer}))
	res, ok := ts.s.Get(test, answer)
	sp.end()
	return res, ok
}

func (ts tracedStore) Put(test, answer [sha256.Size]byte, res unittest.Result) {
	sp := ts.t.start("store.put", ts.t.cause(storeLink{test, answer}))
	ts.s.Put(test, answer, res)
	sp.end()
}

func (ts tracedStore) GetGen(key inference.Key) (inference.Response, bool) {
	sp := ts.t.start("store.get_gen", ts.t.cause(key))
	resp, ok := ts.s.GetGen(key)
	sp.end()
	return resp, ok
}

func (ts tracedStore) PutGen(key inference.Key, resp inference.Response) {
	sp := ts.t.start("store.put_gen", ts.t.cause(key))
	ts.s.PutGen(key, resp)
	sp.end()
}

// statusRecorder keeps a handler's response status.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// routeOf names the route a service request took.
func routeOf(r *http.Request) string {
	switch r.Method + " " + r.URL.Path {
	case "POST /v1/eval":
		return "eval"
	case "GET /v1/leaderboard":
		return "leaderboard"
	case "GET /v1/stats":
		return "stats"
	case "POST /v1/campaign":
		return "campaign"
	}
	return "other"
}

// handler wraps a server's http.Handler with one root span per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.root("server")
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		sp.endWith(routeOf(r), rec.status < 200 || rec.status >= 300)
	})
}

// generate is inference.Dispatcher.Answer with a span around each layer
// call: the dispatcher (caches, store, provider) and the postprocess.
func (t *tracer) generate(gen *inference.Dispatcher, m llm.Model, p dataset.Problem, opts llm.GenOptions, cause spanRef) string {
	req := inference.Request{Model: m.Name, Problem: p, Opts: opts}
	sp := t.start("inference.generate", cause)
	ref := sp.ref()
	key := req.Key()
	t.link(key, ref)
	resp, err := gen.Generate(context.WithValue(context.Background(), spanCtxKey{}, ref), req)
	t.unlink(key, ref)
	sp.endWith("", err != nil)
	if err != nil {
		return ""
	}
	pp := t.start("llm.postprocess", cause)
	answer := llm.Postprocess(resp.Text)
	pp.end()
	return answer
}

// unitTest is engine.UnitTest inside a span, linked so the executor and
// store calls it causes find it.
func (t *tracer) unitTest(eng *engine.Engine, p dataset.Problem, answer string, cause spanRef) unittest.Result {
	sp := t.start("engine.unit_test", cause)
	ref := sp.ref()
	el := execLink{p.ID, answer}
	sl := storeLink{sha256.Sum256([]byte(p.UnitTest)), sha256.Sum256([]byte(answer))}
	t.link(el, ref)
	t.link(sl, ref)
	res := eng.UnitTest(p, answer)
	t.unlink(el, ref)
	t.unlink(sl, ref)
	sp.end()
	return res
}

// refContext is a reference answer's label-stripped text and BLEU
// statistics, computed once per distinct reference as score does.
type refContext struct {
	clean string
	bleu  *textmetrics.BLEURef
}

type refCache struct{ m sync.Map }

func (c *refCache) get(p dataset.Problem) *refContext {
	if v, ok := c.m.Load(p.ReferenceYAML); ok {
		return v.(*refContext)
	}
	clean := yamlmatch.StripLabels(p.ReferenceYAML)
	v, _ := c.m.LoadOrStore(p.ReferenceYAML, &refContext{clean: clean, bleu: textmetrics.NewBLEURef(clean)})
	return v.(*refContext)
}

// scoreAnswer is score.ScoreAnswerWith composed from the public metric
// functions, with a span around each.
func (t *tracer) scoreAnswer(eng *engine.Engine, refs *refCache, p dataset.Problem, answer string, cause spanRef) score.ProblemScore {
	ref := refs.get(p)
	s := score.ProblemScore{ProblemID: p.ID, Variant: p.Variant, Answer: answer}
	metric := func(name string, f func() float64) float64 {
		sp := t.start(name, cause)
		v := f()
		sp.end()
		return v
	}
	s.BLEU = metric("textmetrics.bleu", func() float64 { return ref.bleu.Score(answer) })
	s.EditDist = metric("textmetrics.edit_distance", func() float64 { return textmetrics.EditDistanceScore(answer, ref.clean) })
	s.ExactMatch = metric("textmetrics.exact_match", func() float64 { return textmetrics.ExactMatch(answer, ref.clean) })
	s.KVExact = metric("yamlmatch.kv_exact", func() float64 { return yamlmatch.KVExactMatch(answer, ref.clean) })
	s.KVWildcard = metric("yamlmatch.kv_wildcard", func() float64 { return yamlmatch.KVWildcardMatch(answer, p.ReferenceYAML) })
	s.UnitTest = t.unitTest(eng, p, answer, cause).Score()
	return s
}

// roundTail is how long a pipeline round ran with fewer unfinished items
// than executors: from the moment the (n-workers)th item finished until
// the last one did, or the whole round when it never filled the pool.
func roundTail(start time.Time, done []time.Time, workers int) time.Duration {
	if len(done) == 0 {
		return 0
	}
	sorted := append([]time.Time(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	last := sorted[len(sorted)-1]
	if len(sorted) <= workers {
		return last.Sub(start)
	}
	return last.Sub(sorted[len(sorted)-1-workers])
}

// tracedTable4 is score.BenchmarkVia composed from engine.Pipeline, the
// traced generate and score steps and score.Aggregate. It returns the
// sorted rows, the number of pairs and the pipeline's tail.
func tracedTable4(t *tracer, eng *engine.Engine, gen *inference.Dispatcher, models []llm.Model, problems []dataset.Problem) ([]score.ModelAggregate, int64, time.Duration) {
	type pair struct {
		model   int
		problem dataset.Problem
	}
	var pairs []pair
	counts := make([]int, len(models))
	for mi, m := range models {
		for _, p := range problems {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			counts[mi]++
			pairs = append(pairs, pair{model: mi, problem: p})
		}
	}
	engine.WarmDigests(problems)
	inference.WarmPrompts(problems, 0)
	var refs refCache
	scores := make([]score.ProblemScore, len(pairs))
	causes := make([]spanRef, len(pairs))
	genDone := make([]time.Time, len(pairs))
	execDone := make([]time.Time, len(pairs))
	start := time.Now()
	engine.Pipeline(eng, len(pairs), gen.Concurrency(), 0,
		func(i int) string {
			causes[i] = spanRef{trace: t.traces.Add(1)}
			pr := pairs[i]
			answer := t.generate(gen, models[pr.model], pr.problem, llm.GenOptions{}, causes[i])
			genDone[i] = time.Now()
			return answer
		},
		func(i int, answer string) {
			t.queueWait.Add(int64(time.Since(genDone[i])))
			pr := pairs[i]
			s := t.scoreAnswer(eng, &refs, pr.problem, answer, causes[i])
			s.Model = models[pr.model].Name
			scores[i] = s
			execDone[i] = time.Now()
		})

	rows := make([]score.ModelAggregate, 0, len(models))
	offset := 0
	for mi, m := range models {
		rows = append(rows, score.Aggregate(m, scores[offset:offset+counts[mi]]))
		offset += counts[mi]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].UnitTest > rows[j].UnitTest })
	return rows, int64(len(pairs)), roundTail(start, execDone, eng.Workers())
}

// tracedPassAtK is analysis.PassAtKVia composed from engine.Pipeline
// rounds with traced generate and unit-test steps. It returns the pass
// counts by k and the summed tails of its rounds.
func tracedPassAtK(t *tracer, eng *engine.Engine, gen *inference.Dispatcher, m llm.Model, problems []dataset.Problem, maxK int, temperature float64) ([]int, time.Duration) {
	firstPass := make([]int, len(problems))
	pending := make([]int, len(problems))
	for i := range problems {
		firstPass[i] = -1
		pending[i] = i
	}
	var tail time.Duration
	for k := 0; k < maxK && len(pending) > 0; k++ {
		opts := llm.GenOptions{Sample: k, Temperature: temperature}
		passed := make([]bool, len(pending))
		causes := make([]spanRef, len(pending))
		genDone := make([]time.Time, len(pending))
		execDone := make([]time.Time, len(pending))
		start := time.Now()
		engine.Pipeline(eng, len(pending), gen.Concurrency(), 0,
			func(j int) string {
				causes[j] = spanRef{trace: t.traces.Add(1)}
				answer := t.generate(gen, m, problems[pending[j]], opts, causes[j])
				genDone[j] = time.Now()
				return answer
			},
			func(j int, answer string) {
				t.queueWait.Add(int64(time.Since(genDone[j])))
				passed[j] = t.unitTest(eng, problems[pending[j]], answer, causes[j]).Passed
				execDone[j] = time.Now()
			})
		tail += roundTail(start, execDone, eng.Workers())
		still := pending[:0]
		for j, idx := range pending {
			if passed[j] {
				firstPass[idx] = k
			} else {
				still = append(still, idx)
			}
		}
		pending = still
	}
	out := make([]int, maxK)
	for k := 1; k <= maxK; k++ {
		for _, idx := range firstPass {
			if idx >= 0 && idx < k {
				out[k-1]++
			}
		}
	}
	return out, tail
}

// writeSpans writes every recorded span to path as gzipped JSON lines,
// replacing any earlier file.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansPath is where a traced run leaves its spans, under the checkout's
// build directory.
func spansPath(name string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", name, seed))
}

// layerMetrics folds the recorded spans into per-layer metrics.
func (t *tracer) layerMetrics(layers map[string]float64) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()

	type agg struct {
		calls, failed int
		busy          time.Duration
		durs          []float64 // ms
	}
	by := map[string]*agg{}
	get := func(name string) *agg {
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
		}
		return a
	}
	for _, s := range spans {
		d := s.End - s.Start
		name := s.Name
		switch s.Name {
		case "server":
			name = "server." + s.Attr
		case "unittest.run":
			get("unittest.run." + s.Attr).busy += d
		}
		a := get(name)
		a.calls++
		a.busy += d
		if s.Failed {
			a.failed++
		}
		if s.Name == "server" || s.Name == "unittest.run" {
			a.durs = append(a.durs, float64(d)/1e6)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, name := range []string{
		"inference.generate", "inference.provider",
		"textmetrics.bleu", "textmetrics.edit_distance", "textmetrics.exact_match",
		"yamlmatch.kv_exact", "yamlmatch.kv_wildcard",
		"store.get", "store.get_gen", "store.put", "store.put_gen",
	} {
		a := get(name)
		layers[name+".calls"] = float64(a.calls)
		layers[name+".busy_ms"] = ms(a.busy)
	}
	layers["llm.postprocess.busy_ms"] = ms(get("llm.postprocess").busy)

	// engine.UnitTest calls the executor and the result store on the
	// calling goroutine, so its self time is its busy time less theirs.
	// Inside the service the engine is called from the handler, where
	// no span can wrap it, and the self time is not known.
	ut := get("engine.unit_test")
	layers["engine.unit_test.calls"] = float64(ut.calls)
	if ut.calls > 0 {
		layers["engine.unit_test.self_ms"] = ms(ut.busy - get("unittest.run").busy - get("store.get").busy - get("store.put").busy)
	}
	layers["engine.queue_wait_ms"] = float64(t.queueWait.Load()) / 1e6

	run := get("unittest.run")
	layers["unittest.run.calls"] = float64(run.calls)
	layers["unittest.run.busy_ms"] = ms(run.busy)
	layers["unittest.run.p50_us"] = percentile(run.durs, 0.50) * 1000
	layers["unittest.run.p99_us"] = percentile(run.durs, 0.99) * 1000
	layers["unittest.run.errors"] = float64(run.failed)
	for _, f := range families {
		layers["unittest.run."+f+".busy_ms"] = ms(get("unittest.run." + f).busy)
	}

	for _, r := range []string{"eval", "leaderboard", "stats", "campaign"} {
		a := get("server." + r)
		layers["server."+r+".requests"] = float64(a.calls)
		layers["server."+r+".errors"] = float64(a.failed)
		layers["server."+r+".busy_p50_ms"] = percentile(a.durs, 0.50)
		layers["server."+r+".busy_p99_ms"] = percentile(a.durs, 0.99)
	}
	layers["trace.spans"] = float64(len(spans))
}
