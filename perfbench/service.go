package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cloudeval/client"
	"cloudeval/internal/augment"
	"cloudeval/internal/core"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/loadgen"
	"cloudeval/internal/score"
	"cloudeval/internal/server"
	"cloudeval/internal/store"
)

const (
	// serviceRate is the open-loop offered load, in requests per second:
	// under a third of the about 5,200/s capacity measured on a 2-core
	// machine with this trace and two connections. At half of capacity,
	// a shared host's slow phases pushed the service into saturation
	// and the latency of whole runs up fivefold.
	serviceRate = 1500.0
	// serviceConns bounds requests in flight, and so connections.
	serviceConns = 2
	// evalSamples is how many sampled generations per (model, problem)
	// eval answers are drawn from; sampled answers are what make a share
	// of eval requests miss the engine cache.
	evalSamples = 16
	// checkEvery selects the eval responses the run checks against
	// score.ScoreAnswer.
	checkEvery = 25
	// setupReps is how many times an untraced run sets the service up;
	// setup_s is the median.
	setupReps = 5
	// warmupOps is the length of the untimed closed-loop warm-up trace.
	warmupOps = 200
)

// serviceTrace synthesizes the seeded service trace: loadgen's default
// mix of request types, with each eval answer replaced by one of the
// sim zoo's sampled generations for that problem.
func serviceTrace(seed int64, n int, problems []dataset.Problem) ([]loadgen.Op, error) {
	names := make([]string, len(llm.Models))
	for i, m := range llm.Models {
		names[i] = m.Name
	}
	ops, err := loadgen.Synthesize(problems, names, nil, n, seed, loadgen.DefaultMix())
	if err != nil {
		return nil, err
	}
	byID := make(map[string]dataset.Problem, len(problems))
	for _, p := range problems {
		byID[p.ID] = p
	}
	temperature := core.DefaultFigure8Config().Temperature
	rng := rand.New(rand.NewSource(^seed))
	for i := range ops {
		if ops[i].Op != "eval" {
			continue
		}
		m := llm.Models[rng.Intn(len(llm.Models))]
		opts := llm.GenOptions{Sample: rng.Intn(evalSamples), Temperature: temperature}
		// An empty extraction would be a malformed request; such ops
		// keep loadgen's reference answer.
		if a := llm.Postprocess(m.Generate(byID[ops[i].Problem], opts)); a != "" {
			ops[i].Answer = a
		}
	}
	return ops, nil
}

// writeTrace stores ops as a loadgen JSONL trace and reads them back, so
// the service is driven from the trace file as cloudeval loadgen would.
func writeTrace(path string, ops []loadgen.Op) ([]loadgen.Op, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := loadgen.WriteTrace(f, ops); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return loadgen.LoadTrace(path)
}

// serviceStack is one in-process cloudevald over a store, listening on
// a loopback port.
type serviceStack struct {
	st     *store.Store
	eng    *engine.Engine
	gen    *inference.Dispatcher
	hs     *http.Server
	hc     *http.Client
	c      *client.Client
	served chan error
}

// setupService builds a service over the store at path: corpus
// generation and augmentation, store Open, engine, dispatcher and
// server construction. It is what setup_s times.
func setupService(path, dataDir string, tr *tracer, layers map[string]float64) (*serviceStack, error) {
	t0 := time.Now()
	originals := dataset.Generate()
	layers["dataset.generate_ms"] = msSince(t0)
	t1 := time.Now()
	st, err := store.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	layers["store.open_ms"] = msSince(t1)
	open := st.LastOpen()
	layers["store.open.scanned_frames"] = float64(open.ScannedFrames)
	layers["store.open.snapshot_frames"] = float64(open.SnapshotFrames)

	sim := inference.NewSim(llm.Models)
	var prov inference.Provider = sim
	var cs engine.CacheStore = st
	var gs inference.GenStore = st
	exec := engine.Executor(engine.PoolExecutor{})
	if tr != nil {
		prov = tracedProvider{Provider: sim, t: tr}
		exec = tracedExec{Executor: exec, t: tr}
		ts := tracedStore{s: st, t: tr}
		cs, gs = ts, ts
	}
	s := &serviceStack{st: st}
	s.eng = engine.New(engine.WithStore(cs), engine.WithExecutor(exec))
	s.gen = inference.NewDispatcher(prov, inference.WithGenStore(gs),
		inference.WithConcurrency(inference.DefaultConcurrency(sim)))
	t2 := time.Now()
	bench := core.NewCustomVia(s.eng, s.gen, originals, llm.Models)
	layers["augment.expand_ms"] = msSince(t2)
	srv := server.NewWithConfig(bench, dataDir, server.Config{Store: st})
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	s.hs = &http.Server{Handler: h}
	return s, nil
}

// serve starts listening on a loopback port.
func (s *serviceStack) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns}}
	s.c = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(s.hc))
	return nil
}

// close stops the server, waits for its serve loop to return, and
// closes the store.
func (s *serviceStack) close() error {
	var errs []error
	if s.served != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.hs.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.hc.CloseIdleConnections()
	}
	errs = append(errs, s.st.Close())
	return errors.Join(errs...)
}

// warmUp runs the untimed warm-up: the leaderboard (Table 4 from the
// warm store), every campaign set the traces post, run to completion,
// and a closed-loop pass over the separate warm-up trace.
func (s *serviceStack) warmUp(ops, warm []loadgen.Op) error {
	ctx := context.Background()
	if _, err := s.c.Leaderboard(ctx); err != nil {
		return fmt.Errorf("warm-up leaderboard: %w", err)
	}
	posted := map[string]bool{}
	for _, op := range append(append([]loadgen.Op(nil), ops...), warm...) {
		if op.Op != "campaign" || posted[strings.Join(op.Experiments, ",")] {
			continue
		}
		posted[strings.Join(op.Experiments, ",")] = true
		cs, err := s.c.StartCampaign(ctx, op.Experiments)
		if err != nil {
			return fmt.Errorf("warm-up campaign: %w", err)
		}
		if cs, err = s.c.WaitCampaign(ctx, cs.ID, 10*time.Millisecond); err != nil || cs.State != "done" {
			return fmt.Errorf("warm-up campaign %s: state %q: %v", cs.ID, cs.State, err)
		}
	}
	for _, op := range warm {
		if _, err := do(ctx, s.c, op); err != nil {
			return fmt.Errorf("warm-up %s: %w", op.Op, err)
		}
	}
	return nil
}

// do sends one trace op through c; eval ops return the service's
// response.
func do(ctx context.Context, c *client.Client, op loadgen.Op) (*client.EvalResponse, error) {
	switch op.Op {
	case "eval", "eval_model":
		resp, err := c.Eval(ctx, client.EvalRequest{Problem: op.Problem, Answer: op.Answer, Model: op.Model})
		return &resp, err
	case "leaderboard":
		_, err := c.Leaderboard(ctx)
		return nil, err
	case "stats":
		_, err := c.Stats(ctx)
		return nil, err
	case "campaign":
		_, err := c.StartCampaign(ctx, op.Experiments)
		return nil, err
	}
	return nil, fmt.Errorf("unknown op %q", op.Op)
}

// loadReport is what one open-loop phase measured.
type loadReport struct {
	LatMs    []float64 // per request, from its scheduled send time
	LagMs    []float64 // per request, how late the pacer sent it
	Failed   int
	ElapsedS float64
	ByOp     map[string]int
	// Checks are the sampled eval responses.
	Checks []client.EvalResponse
}

// drive sends ops open-loop at rate, over serviceConns connections.
// Each request is due at start + i/rate whether or not earlier ones
// have returned; its latency runs from that due time.
func drive(c *client.Client, ops []loadgen.Op, rate float64) loadReport {
	ctx := context.Background()
	type sent struct {
		i   int
		due time.Time
	}
	res := loadReport{
		LatMs: make([]float64, len(ops)),
		LagMs: make([]float64, len(ops)),
		ByOp:  map[string]int{},
	}
	failed := make([]bool, len(ops))
	checks := make([]*client.EvalResponse, len(ops))
	// Sized to the number of sends, so the pacer never blocks on a
	// stalled server: the backlog shows as latency instead.
	jobs := make(chan sent, len(ops))
	done := make(chan struct{}, serviceConns)
	for w := 0; w < serviceConns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := range jobs {
				resp, err := do(ctx, c, ops[j.i])
				res.LatMs[j.i] = float64(time.Since(j.due)) / 1e6
				failed[j.i] = err != nil
				if err == nil && resp != nil && j.i%checkEvery == 0 {
					checks[j.i] = resp
				}
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.LagMs[i] = float64(time.Since(due)) / 1e6
		jobs <- sent{i: i, due: due}
	}
	close(jobs)
	for w := 0; w < serviceConns; w++ {
		<-done
	}
	res.ElapsedS = time.Since(start).Seconds()
	for i, op := range ops {
		res.ByOp[op.Op]++
		if failed[i] {
			res.Failed++
		}
		if checks[i] != nil {
			res.Checks = append(res.Checks, *checks[i])
		}
	}
	return res
}

// checkResponses compares every sampled eval response with
// score.ScoreAnswer on the answer the service scored. It returns the
// first mismatch, or "".
func checkResponses(problems map[string]dataset.Problem, checks []client.EvalResponse) string {
	for _, got := range checks {
		p, ok := problems[got.Problem]
		if !ok {
			return fmt.Sprintf("response names unknown problem %q", got.Problem)
		}
		want := score.ScoreAnswer(p, got.Answer)
		if len(got.Scores) != len(score.Metrics) {
			return fmt.Sprintf("problem %s: response has %d scores, want %d", p.ID, len(got.Scores), len(score.Metrics))
		}
		for _, name := range score.Metrics {
			if g, ok := got.Scores[name]; !ok || g != want.Metric(name) {
				return fmt.Sprintf("problem %s: %s = %v, score.ScoreAnswer gives %v", p.ID, name, g, want.Metric(name))
			}
		}
	}
	return ""
}

// phase is one service lifetime: set up over the store at path, warm
// up, drive ops, shut down. It sets the service up setups times and
// keeps the last.
type phase struct {
	load      loadReport
	setupS    []float64
	missShare float64
	layers    map[string]float64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func runPhase(cfg runConfig, path string, ops, warm []loadgen.Op, tr *tracer, setups int) (phase, error) {
	ph := phase{layers: map[string]float64{}}
	var s *serviceStack
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if s, err = setupService(path, path+".data", tr, ph.layers); err != nil {
			return ph, err
		}
		ph.setupS = append(ph.setupS, time.Since(start).Seconds())
		if i < setups-1 {
			if err := s.close(); err != nil {
				return ph, err
			}
			// A discarded setup is the benchmark's garbage, not the
			// service's: collect it so peak_rss_mb stays the service's.
			runtime.GC()
		}
	}
	if err := s.serve(); err != nil {
		s.close()
		return ph, err
	}
	if err := s.warmUp(ops, warm); err != nil {
		s.close()
		return ph, err
	}
	if tr != nil {
		tr.reset()
	}
	es0, gs0, ss0 := s.eng.Stats(), s.gen.Stats(), snapStore(s.st, path)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph.load = drive(s.c, ops, serviceRate)
	runtime.ReadMemStats(&ms1)
	es1, gs1 := s.eng.Stats(), s.gen.Stats()
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	evals := ph.load.ByOp["eval"] + ph.load.ByOp["eval_model"]
	ph.missShare = ratio(float64(es1.Executed-es0.Executed), float64(evals))
	if err := s.close(); err != nil {
		return ph, err
	}
	if tr != nil {
		if err := tr.writeSpans(spansPath(cfg.workload, cfg.seed)); err != nil {
			return ph, fmt.Errorf("write spans: %w", err)
		}
		tr.layerMetrics(ph.layers)
		engineLayerMetrics(ph.layers, es0, es1)
		genLayerMetrics(ph.layers, gs0, gs1)
		storeLayerMetrics(ph.layers, ss0, snapStore(s.st, path))
	}
	return ph, nil
}

// copyStore copies every file of the store at src to dst.
func copyStore(src, dst string) error {
	files, err := filepath.Glob(src + "*")
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := copyFile(f, dst+strings.TrimPrefix(f, src)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runService runs service-mix: an in-process cloudevald over the store
// a cold campaign on the same seed leaves, driven open-loop from a
// seeded trace by a load generator in the same process. The traced
// variant runs the first half of the trace twice, on two copies of the
// store: untraced, then traced; the latency difference between the two
// is the tracing overhead.
func runService(cfg runConfig) (result, error) {
	fixture := filepath.Join(cfg.work, "fixture.store")
	if _, err := runChildProc("cold", cfg.seed, fixture, false); err != nil {
		return result{}, fmt.Errorf("build service fixture: %w", err)
	}
	corpus := augment.ExpandCorpus(dataset.Generate())
	problems := make(map[string]dataset.Problem, len(corpus))
	for _, p := range corpus {
		problems[p.ID] = p
	}
	n := int(serviceRate * cfg.seconds)
	gen, err := serviceTrace(cfg.seed, n, corpus)
	if err != nil {
		return result{}, err
	}
	if cfg.traced {
		gen = gen[:n/2]
	}
	ops, err := writeTrace(filepath.Join(cfg.work, "trace.jsonl"), gen)
	if err != nil {
		return result{}, fmt.Errorf("service trace: %w", err)
	}
	warm, err := serviceTrace(^cfg.seed, warmupOps, corpus)
	if err != nil {
		return result{}, err
	}

	var res result
	var phases []phase
	if cfg.traced {
		if err := copyStore(fixture, fixture+"-traced"); err != nil {
			return res, err
		}
		untraced, err := runPhase(cfg, fixture, ops, warm, nil, 1)
		if err != nil {
			return res, err
		}
		traced, err := runPhase(cfg, fixture+"-traced", ops, warm, newTracer(), 1)
		if err != nil {
			return res, err
		}
		phases = []phase{untraced, traced}
		layers := traced.layers
		allocs, err := runChildProc("allocs", 0, filepath.Join(cfg.work, "allocs.store"), false)
		if err != nil {
			return res, err
		}
		for k, v := range allocs.Layers {
			layers[k] = v
		}
		load := traced.load
		layers["loadgen.send_lag_p99_ms"] = percentile(load.LagMs, 0.99)
		layers["loadgen.samples"] = float64(len(load.LatMs))
		layers["loadgen.eval_miss_share"] = traced.missShare
		for _, op := range traceOps {
			layers["loadgen.ops."+op] = float64(load.ByOp[op])
		}
		layers["runtime.allocs_per_pair"] = ratio(float64(untraced.mallocs), float64(len(untraced.load.LatMs)))
		layers["runtime.gc_cycles"] = float64(untraced.gcCycles)
		layers["runtime.gc_pause_ms"] = float64(untraced.gcPauseNs) / 1e6
		layers["trace.overhead_pct"] = (percentile(load.LatMs, 0.5)/percentile(untraced.load.LatMs, 0.5) - 1) * 100
		if res, err = newResult(perLayer, layers, false); err != nil {
			return res, err
		}
	} else {
		ph, err := runPhase(cfg, fixture, ops, warm, nil, setupReps)
		if err != nil {
			return res, err
		}
		phases = []phase{ph}
		load := ph.load
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return res, err
		}
		if res, err = newResult(endToEnd, map[string]float64{
			"throughput_per_s": float64(len(load.LatMs)) / load.ElapsedS,
			"p50_ms":           percentile(load.LatMs, 0.50),
			"p99_ms":           percentile(load.LatMs, 0.99),
			"setup_s":          median(ph.setupS),
			"peak_rss_mb":      float64(ru.Maxrss) / 1024, // Maxrss is in KiB on Linux
		}, true); err != nil {
			return res, err
		}
		byOp := map[string][]float64{}
		for i, op := range ops {
			byOp[op.Op] = append(byOp[op.Op], load.LatMs[i])
		}
		counts := make([]string, 0, len(byOp))
		for op, lat := range byOp {
			counts = append(counts, fmt.Sprintf("%s=%d(p50=%.3fms,p99=%.3fms)", op, len(lat), percentile(lat, 0.5), percentile(lat, 0.99)))
		}
		sort.Strings(counts)
		fmt.Printf("service-mix seed=%d rate=%g/s conns=%d samples=%d ops[%s] eval_miss_share=%.3f send_lag_p99_ms=%.3f\n",
			cfg.seed, serviceRate, serviceConns, len(load.LatMs), strings.Join(counts, " "), ph.missShare, percentile(load.LagMs, 0.99))
	}

	mismatch := ""
	for _, ph := range phases {
		res.Attempted += int64(len(ph.load.LatMs))
		res.Failed += int64(ph.load.Failed)
		if mismatch == "" {
			mismatch = checkResponses(problems, ph.load.Checks)
		}
	}
	if mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", mismatch)
	}
	res.Correct = mismatch == "" && res.Failed == 0
	return res, nil
}
