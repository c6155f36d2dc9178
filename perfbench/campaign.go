package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"cloudeval/internal/analysis"
	"cloudeval/internal/augment"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
	"cloudeval/internal/store"
	"cloudeval/internal/unittest"
)

// childKinds maps each campaign workload to the child repetition it
// runs.
var childKinds = map[string]string{
	"table4-cold":   "cold",
	"table4-warm":   "warm",
	"passk-sampled": "passk",
}

// workloadOf names the workload a child kind belongs to.
func workloadOf(kind string) string {
	for w, k := range childKinds {
		if k == kind {
			return w
		}
	}
	return kind
}

// childReport is what one child repetition prints: its timings, its
// rendered output for the parent's check, the counters the checks and
// metrics need, and (traced or allocs children) per-layer metrics.
type childReport struct {
	SetupS        float64            `json:"setup_s"`
	CampaignS     float64            `json:"campaign_s"`
	P50S          float64            `json:"p50_s"`
	P99S          float64            `json:"p99_s"`
	Items         int64              `json:"items"`
	Output        string             `json:"output"`
	GenErrors     int64              `json:"gen_errors"`
	ExecErrors    int64              `json:"exec_errors"`
	ProviderCalls int64              `json:"provider_calls"`
	Executed      int64              `json:"executed"`
	Appended      int64              `json:"appended"`
	Mallocs       uint64             `json:"mallocs"`
	GCCycles      uint32             `json:"gc_cycles"`
	GCPauseNs     uint64             `json:"gc_pause_ns"`
	Layers        map[string]float64 `json:"layers,omitempty"`

	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

// permuted returns xs in the order rng draws.
func permuted[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// campaignInput orders the models and problems a campaign is given by
// the seed. The program sees only the reordered slices.
func campaignInput(seed int64, models []llm.Model, problems []dataset.Problem) ([]llm.Model, []dataset.Problem) {
	rng := rand.New(rand.NewSource(seed))
	return permuted(rng, models), permuted(rng, problems)
}

// figure8Models resolves core.Figure8Models against the zoo.
func figure8Models() ([]llm.Model, error) {
	out := make([]llm.Model, 0, len(core.Figure8Models))
	for _, name := range core.Figure8Models {
		m, ok := llm.ByName(name)
		if !ok {
			return nil, fmt.Errorf("pass@k model %q is not in the zoo", name)
		}
		out = append(out, m)
	}
	return out, nil
}

// passKDepth is Figure 8's sample budget for one model.
func passKDepth(cfg core.Figure8Config, m llm.Model) int {
	if m.Name == "gpt-4" {
		return cfg.GPT4MaxK
	}
	return cfg.MaxK
}

// countingExec counts errored unit-test results: a campaign scores them
// as failures, so only the executor can tell them apart.
type countingExec struct {
	engine.Executor
	errors *atomic.Int64
}

func (c countingExec) RunUnitTest(p dataset.Problem, answer string) unittest.Result {
	res := c.Executor.RunUnitTest(p, answer)
	if res.Err != nil {
		c.errors.Add(1)
	}
	return res
}

// runChild runs one campaign repetition or the allocation pass in this
// (fresh) process and prints its report as one JSON line.
func runChild(kind string, seed int64, path string, traced bool) error {
	var rep childReport
	var err error
	if kind == "allocs" {
		rep.Layers, err = allocPass(path)
	} else {
		rep, err = campaignChild(kind, seed, path, traced)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// storeBytes sums the on-disk size of a store's segment files.
func storeBytes(path string) int64 {
	segs, _ := filepath.Glob(path + ".s[0-9][0-9]")
	var n int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func campaignChild(kind string, seed int64, storePath string, traced bool) (childReport, error) {
	var rep childReport
	layers := map[string]float64{}
	t0 := time.Now()
	originals := dataset.Generate()
	layers["dataset.generate_ms"] = msSince(t0)
	t1 := time.Now()
	corpus := augment.ExpandCorpus(originals)
	layers["augment.expand_ms"] = msSince(t1)
	var st *store.Store
	var ss0 storeSnap
	if kind != "passk" {
		t2 := time.Now()
		var err error
		if st, err = store.Open(storePath); err != nil {
			return rep, fmt.Errorf("open store: %w", err)
		}
		layers["store.open_ms"] = msSince(t2)
		open := st.LastOpen()
		layers["store.open.scanned_frames"] = float64(open.ScannedFrames)
		layers["store.open.snapshot_frames"] = float64(open.SnapshotFrames)
		ss0 = snapStore(st, storePath)
	}
	rep.SetupS = time.Since(t0).Seconds()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	sim := inference.NewSim(llm.Models)
	execErrs := new(atomic.Int64)
	var prov inference.Provider = sim
	var exec engine.Executor = countingExec{Executor: engine.PoolExecutor{}, errors: execErrs}
	// A wrapped provider falls out of DefaultConcurrency's type switch,
	// so the sim's own limit is passed explicitly in both modes.
	dopts := []inference.DispatchOption{inference.WithConcurrency(inference.DefaultConcurrency(sim))}
	var eopts []engine.Option
	if tr != nil {
		prov = tracedProvider{Provider: sim, t: tr}
		exec = tracedExec{Executor: exec, t: tr}
	}
	if st != nil {
		var cs engine.CacheStore = st
		var gs inference.GenStore = st
		if tr != nil {
			ts := tracedStore{s: st, t: tr}
			cs, gs = ts, ts
		}
		eopts = append(eopts, engine.WithStore(cs))
		dopts = append(dopts, inference.WithGenStore(gs))
	}
	eng := engine.New(append(eopts, engine.WithExecutor(exec))...)
	gen := inference.NewDispatcher(prov, dopts...)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	progress := watchProgress(eng, start)
	var tail time.Duration
	switch kind {
	case "cold", "warm":
		models, problems := campaignInput(seed, llm.Models, corpus)
		var rows []score.ModelAggregate
		if tr != nil {
			rows, rep.Items, tail = tracedTable4(tr, eng, gen, models, problems)
		} else {
			var raw map[string][]score.ProblemScore
			rows, raw = score.BenchmarkVia(eng, gen, models, problems)
			for _, s := range raw {
				rep.Items += int64(len(s))
			}
		}
		rep.Output = score.FormatTable4(rows)
	case "passk":
		fig8, err := figure8Models()
		if err != nil {
			return rep, err
		}
		// The study runs its models in core.Figure8's order; each
		// PassAtKVia campaign gets one model and the permuted problems.
		_, problems := campaignInput(seed, fig8, corpus)
		cfg := core.DefaultFigure8Config()
		series := make(map[string][]int, len(fig8))
		for _, m := range fig8 {
			if tr != nil {
				var t time.Duration
				series[m.Name], t = tracedPassAtK(tr, eng, gen, m, problems, passKDepth(cfg, m), cfg.Temperature)
				tail += t
			} else {
				series[m.Name] = analysis.PassAtKVia(eng, gen, m, problems, passKDepth(cfg, m), cfg.Temperature)
			}
		}
		gs := gen.Stats()
		rep.Items = gs.Generated + gs.CacheHits + gs.StoreHits + gs.Errors
		rep.Output = analysis.FormatFigure8(series, core.Figure8Models)
	default:
		return rep, fmt.Errorf("unknown child kind %q", kind)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return rep, fmt.Errorf("close store: %w", err)
		}
	}
	rep.CampaignS = time.Since(start).Seconds()
	p50, p99 := progress.stop(rep.Items)
	rep.P50S, rep.P99S = p50.Seconds(), p99.Seconds()
	runtime.ReadMemStats(&ms1)
	rep.Mallocs = ms1.Mallocs - ms0.Mallocs
	rep.GCCycles = ms1.NumGC - ms0.NumGC
	rep.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	gs, es := gen.Stats(), eng.Stats()
	rep.GenErrors = gs.Errors
	rep.ExecErrors = execErrs.Load()
	rep.ProviderCalls = gs.Generated
	rep.Executed = es.Executed
	if st != nil {
		rep.Appended = st.Appended()
	}
	if tr != nil {
		if err := tr.writeSpans(spansPath(workloadOf(kind), seed)); err != nil {
			return rep, fmt.Errorf("write spans: %w", err)
		}
		tr.layerMetrics(layers)
		layers["analysis.round_tail_ms"] = float64(tail) / 1e6
		engineLayerMetrics(layers, engine.Stats{}, es)
		genLayerMetrics(layers, inference.Stats{}, gs)
		if st != nil {
			storeLayerMetrics(layers, ss0, snapStore(st, storePath))
		}
		rep.Layers = layers
	}
	return rep, nil
}

// engineLayerMetrics records what the engine did between two
// snapshots.
func engineLayerMetrics(layers map[string]float64, a, b engine.Stats) {
	executed, hits, storeHits := b.Executed-a.Executed, b.CacheHits-a.CacheHits, b.StoreHits-a.StoreHits
	layers["engine.executed"] = float64(executed)
	layers["engine.cache_hits"] = float64(hits)
	layers["engine.store_hits"] = float64(storeHits)
	layers["engine.hit_ratio"] = ratio(float64(hits+storeHits), float64(executed+hits+storeHits))
}

// genLayerMetrics records the dispatcher's cache hit ratio between two
// snapshots.
func genLayerMetrics(layers map[string]float64, a, b inference.Stats) {
	hits := b.CacheHits - a.CacheHits + b.StoreHits - a.StoreHits
	layers["inference.hit_ratio"] = ratio(float64(hits), float64(hits+b.Generated-a.Generated))
}

// storeSnap is a store's counters at one moment, with the on-disk size
// of its segments.
type storeSnap struct{ appended, flushes, hits, misses, bytes int64 }

func snapStore(st *store.Store, path string) storeSnap {
	cs := st.CacheStats()
	return storeSnap{st.Appended(), st.Flushes(), cs.Hits, cs.Misses, storeBytes(path)}
}

// storeLayerMetrics records what the store did between two snapshots.
func storeLayerMetrics(layers map[string]float64, a, b storeSnap) {
	appended := float64(b.appended - a.appended)
	layers["store.hot_cache_hit_ratio"] = ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses))
	layers["store.frames_per_flush"] = ratio(appended, float64(b.flushes-a.flushes))
	layers["store.bytes_per_record"] = ratio(float64(b.bytes-a.bytes), appended)
	layers["store.appended_frames"] = appended
}

// progressWatch samples how many items of a campaign have been scored.
// Every pair of a Table 4 campaign and every pass@k sample makes
// exactly one engine.UnitTest call, and each call bumps exactly one of
// the engine's Executed, CacheHits and StoreHits counters when it
// returns, so their sum is the number of items scored so far. All items
// are submitted when the campaign starts, so the time at which a share
// q of them has been scored is the q-quantile of item latency.
type progressWatch struct {
	stopc chan struct{}
	done  chan []progressPoint
}

type progressPoint struct {
	at time.Duration
	n  int64
}

const progressPeriod = time.Millisecond

func watchProgress(eng *engine.Engine, start time.Time) *progressWatch {
	w := &progressWatch{stopc: make(chan struct{}), done: make(chan []progressPoint, 1)}
	scored := func() int64 {
		st := eng.Stats()
		return st.Executed + st.CacheHits + st.StoreHits
	}
	base := scored()
	go func() {
		var pts []progressPoint
		tick := time.NewTicker(progressPeriod)
		defer tick.Stop()
		last := int64(0)
		for {
			select {
			case <-w.stopc:
				w.done <- pts
				return
			case <-tick.C:
				if n := scored() - base; n != last {
					pts = append(pts, progressPoint{time.Since(start), n})
					last = n
				}
			}
		}
	}()
	return w
}

// stop ends sampling and returns when half and when 99% of total items
// had been scored (to within progressPeriod).
func (w *progressWatch) stop(total int64) (p50, p99 time.Duration) {
	close(w.stopc)
	pts := <-w.done
	at := func(q float64) time.Duration {
		need := int64(math.Ceil(q * float64(total)))
		for _, p := range pts {
			if p.n >= need {
				return p.at
			}
		}
		return 0
	}
	return at(0.50), at(0.99)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runChildProc runs one child repetition of this binary and waits for
// it to exit.
func runChildProc(kind string, seed int64, path string, traced bool) (childReport, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	var rep childReport
	rss, err := runSelf([]string{"-child", kind, "-seed", strconv.FormatInt(seed, 10), "-path", path, "-trace", trace}, &rep)
	rep.PeakRSSMB = rss
	return rep, err
}

// runSelf runs this binary with args, waits for it to exit, decodes the
// last line of its output into out, and returns its peak resident set.
func runSelf(args []string, out any) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// A child outlives nothing: if this process is killed, so is it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("child %v: %w", args, err)
	}
	stdout = bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(stdout, '\n'); i >= 0 {
		stdout = stdout[i+1:]
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return 0, fmt.Errorf("child %v report: %w", args, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return rss, nil
}

// referenceOutput renders the workload's output through the serial
// reference path on the same input: score.BenchmarkSerial for Table 4,
// PassAtKVia on a one-worker engine without a cache for pass@k.
func referenceOutput(kind string, seed int64) (string, error) {
	corpus := augment.ExpandCorpus(dataset.Generate())
	if kind != "passk" {
		models, problems := campaignInput(seed, llm.Models, corpus)
		rows, _ := score.BenchmarkSerial(models, problems)
		return score.FormatTable4(rows), nil
	}
	fig8, err := figure8Models()
	if err != nil {
		return "", err
	}
	_, problems := campaignInput(seed, fig8, corpus)
	cfg := core.DefaultFigure8Config()
	eng := engine.New(engine.WithWorkers(1), engine.WithoutCache())
	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	series := make(map[string][]int, len(fig8))
	for _, m := range fig8 {
		series[m.Name] = analysis.PassAtKVia(eng, gen, m, problems, passKDepth(cfg, m), cfg.Temperature)
	}
	if err := gen.Err(); err != nil {
		return "", fmt.Errorf("reference generation: %w", err)
	}
	return analysis.FormatFigure8(series, core.Figure8Models), nil
}

// checkReps compares every repetition's output with the reference and,
// on the warm workload, fails a repetition that generated, executed or
// appended anything. It returns the first mismatch, or "" when all
// pass.
func checkReps(kind, want string, reps []childReport) string {
	for i, r := range reps {
		if r.Output != want {
			return fmt.Sprintf("repetition %d: output differs from the serial reference:\n%s\nwant:\n%s", i, r.Output, want)
		}
		if kind == "warm" && (r.ProviderCalls != 0 || r.Executed != 0 || r.Appended != 0) {
			return fmt.Sprintf("repetition %d: warm campaign made %d provider calls, %d executions, %d appends",
				i, r.ProviderCalls, r.Executed, r.Appended)
		}
	}
	return ""
}

// runCampaignWorkload runs table4-cold, table4-warm or passk-sampled.
func runCampaignWorkload(cfg runConfig) (result, error) {
	kind := childKinds[cfg.workload]
	fixture := filepath.Join(cfg.work, "fixture.store")
	if kind == "warm" {
		// The warm store is what a first `cloudeval bench -store` leaves:
		// an untimed cold campaign on the same seed, left uncompacted.
		if _, err := runChildProc("cold", cfg.seed, fixture, false); err != nil {
			return result{}, fmt.Errorf("build warm fixture: %w", err)
		}
	}
	storeFor := func(i int) string {
		switch kind {
		case "warm":
			return fixture
		case "cold":
			return filepath.Join(cfg.work, fmt.Sprintf("rep%d.store", i))
		}
		return ""
	}
	rep := func(i int, withTrace bool) (childReport, error) {
		r, err := runChildProc(kind, cfg.seed, storeFor(i), withTrace)
		if kind == "cold" {
			removeStore(storeFor(i))
		}
		return r, err
	}

	// The serial reference runs first: besides the check, it brings the
	// machine from idle to busy before anything is timed.
	want, err := referenceOutput(kind, cfg.seed)
	if err != nil {
		return result{}, err
	}
	var reps []childReport
	var traced, allocs childReport
	if cfg.traced {
		untraced, err := rep(0, false)
		if err != nil {
			return result{}, err
		}
		if traced, err = rep(1, true); err != nil {
			return result{}, err
		}
		if allocs, err = runChildProc("allocs", 0, filepath.Join(cfg.work, "allocs.store"), false); err != nil {
			return result{}, err
		}
		reps = []childReport{untraced, traced}
	} else {
		start := time.Now()
		for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
			r, err := rep(i, false)
			if err != nil {
				return result{}, err
			}
			reps = append(reps, r)
		}
	}

	mismatch := checkReps(kind, want, reps)
	if mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", mismatch)
	}

	var res result
	if cfg.traced {
		layers := traced.Layers
		untraced := reps[0]
		for k, v := range allocs.Layers {
			layers[k] = v
		}
		layers["runtime.allocs_per_pair"] = ratio(float64(untraced.Mallocs), float64(untraced.Items))
		layers["runtime.gc_cycles"] = float64(untraced.GCCycles)
		layers["runtime.gc_pause_ms"] = float64(untraced.GCPauseNs) / 1e6
		layers["trace.overhead_pct"] = (traced.CampaignS/untraced.CampaignS - 1) * 100
		if res, err = newResult(perLayer, layers, false); err != nil {
			return res, err
		}
	} else {
		var tput, p50, p99, setup, rss []float64
		for _, r := range reps {
			tput = append(tput, float64(r.Items)/r.CampaignS)
			p50 = append(p50, r.P50S*1000)
			p99 = append(p99, r.P99S*1000)
			setup = append(setup, r.SetupS)
			rss = append(rss, r.PeakRSSMB)
		}
		if res, err = newResult(endToEnd, map[string]float64{
			"throughput_per_s": median(tput),
			"p50_ms":           median(p50),
			"p99_ms":           median(p99),
			"setup_s":          median(setup),
			"peak_rss_mb":      median(rss),
		}, true); err != nil {
			return res, err
		}
		fmt.Printf("%s seed=%d campaigns=%d items/campaign=%d\n", cfg.workload, cfg.seed, len(reps), reps[0].Items)
	}
	for _, r := range reps {
		res.Attempted += r.Items
		res.Failed += r.GenErrors + r.ExecErrors
	}
	res.Correct = mismatch == "" && res.Failed == 0
	return res, nil
}

// removeStore deletes a store's segment files and sidecars.
func removeStore(path string) {
	files, _ := filepath.Glob(path + "*")
	for _, f := range files {
		os.Remove(f)
	}
}
