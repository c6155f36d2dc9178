package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cloudeval/client"
	"cloudeval/internal/analysis"
	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/score"
)

// smallInput is a seeded slice of the real corpus: enough pairs to
// exercise every step, small enough for a unit test.
func smallInput(t *testing.T, nModels, nProblems int) ([]llm.Model, []dataset.Problem) {
	t.Helper()
	models, problems := campaignInput(7, llm.Models, augment.ExpandCorpus(dataset.Generate()))
	return models[:nModels], problems[:nProblems]
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.metricDef != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v with a bound in (0, 0.25]", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, perLayer[i])
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}

func TestPrintedMetricsParseByNameAndUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		values := map[string]float64{}
		for i, d := range defs {
			values[d.Name] = float64(i) + 0.5
		}
		res, err := newResult(defs, values, true)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatal(err)
		}
		if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
			t.Fatalf("result line lacks correct/attempted/failed: %s", line)
		}
		if len(parsed.Metrics) != len(defs) {
			t.Fatalf("printed %d metrics, declared %d", len(parsed.Metrics), len(defs))
		}
		for i, d := range defs {
			m, ok := parsed.Metrics[d.Name]
			if !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.Unit || *m.Value != float64(i)+0.5 {
				t.Errorf("metric %s did not round-trip with unit %s", d.Name, d.Unit)
			}
		}
	}
	if _, err := newResult(endToEnd, map[string]float64{"throughput_per_s": 1}, true); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := newResult(perLayer, map[string]float64{"no.such.metric": 1}, false); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestTable4CheckAgainstSerialReference(t *testing.T) {
	models, problems := smallInput(t, 3, 40)
	rows, _ := score.BenchmarkSerial(models, problems)
	want := score.FormatTable4(rows)

	gen := inference.NewDispatcher(inference.NewSim(llm.Models))
	untraced, _ := score.BenchmarkVia(engine.New(), gen, models, problems)
	tr := newTracer()
	sim := inference.NewSim(llm.Models)
	tgen := inference.NewDispatcher(tracedProvider{Provider: sim, t: tr}, inference.WithConcurrency(inference.DefaultConcurrency(sim)))
	traced, pairs, _ := tracedTable4(tr, engine.New(engine.WithExecutor(tracedExec{Executor: engine.PoolExecutor{}, t: tr})), tgen, models, problems)
	if pairs == 0 {
		t.Fatal("traced campaign scored no pairs")
	}
	reps := []childReport{{Output: score.FormatTable4(untraced)}, {Output: score.FormatTable4(traced)}}
	if msg := checkReps("cold", want, reps); msg != "" {
		t.Fatalf("campaigns disagree with the serial reference: %s", msg)
	}

	perturbed := append([]score.ModelAggregate(nil), untraced...)
	perturbed[1].KVWildcard += 0.001
	if checkReps("cold", want, []childReport{{Output: score.FormatTable4(perturbed)}}) == "" {
		t.Error("a perturbed Table 4 passed the check")
	}
	if checkReps("warm", want, []childReport{{Output: want, Executed: 1}}) == "" {
		t.Error("a warm campaign that executed a unit test passed the check")
	}
	if checkReps("warm", want, []childReport{{Output: want, Appended: 1}}) == "" {
		t.Error("a warm campaign that appended a frame passed the check")
	}
}

func TestPassKCheckAgainstSerialReference(t *testing.T) {
	models, problems := smallInput(t, 2, 30)
	ref := engine.New(engine.WithWorkers(1), engine.WithoutCache())
	refGen := inference.NewDispatcher(inference.NewSim(llm.Models))
	tr := newTracer()
	sim := inference.NewSim(llm.Models)
	gen := inference.NewDispatcher(tracedProvider{Provider: sim, t: tr}, inference.WithConcurrency(inference.DefaultConcurrency(sim)))
	eng := engine.New()
	want, got, perturbed := map[string][]int{}, map[string][]int{}, map[string][]int{}
	names := []string{}
	for _, m := range models {
		names = append(names, m.Name)
		want[m.Name] = analysis.PassAtKVia(ref, refGen, m, problems, 4, 0.75)
		got[m.Name], _ = tracedPassAtK(tr, eng, gen, m, problems, 4, 0.75)
		perturbed[m.Name] = append([]int(nil), got[m.Name]...)
	}
	wantOut := analysis.FormatFigure8(want, names)
	if msg := checkReps("passk", wantOut, []childReport{{Output: analysis.FormatFigure8(got, names)}}); msg != "" {
		t.Fatalf("traced pass@k disagrees with the reference: %s", msg)
	}
	perturbed[names[0]][3]++
	if checkReps("passk", wantOut, []childReport{{Output: analysis.FormatFigure8(perturbed, names)}}) == "" {
		t.Error("a perturbed pass@k series passed the check")
	}
}

func TestServiceCheckAgainstScoreAnswer(t *testing.T) {
	_, problems := smallInput(t, 1, 3)
	byID := map[string]dataset.Problem{}
	var resps []client.EvalResponse
	for _, p := range problems {
		byID[p.ID] = p
		s := score.ScoreAnswer(p, p.ReferenceYAML)
		r := client.EvalResponse{Problem: p.ID, Answer: p.ReferenceYAML, Scores: map[string]float64{}}
		for _, name := range score.Metrics {
			r.Scores[name] = s.Metric(name)
		}
		resps = append(resps, r)
	}
	if msg := checkResponses(byID, resps); msg != "" {
		t.Fatalf("faithful responses failed the check: %s", msg)
	}
	resps[1].Scores["bleu"] += 1e-9
	if checkResponses(byID, resps) == "" {
		t.Error("a perturbed service score passed the check")
	}
	resps[1].Scores["bleu"] -= 1e-9
	delete(resps[2].Scores, "unit_test")
	if checkResponses(byID, resps) == "" {
		t.Error("a response missing a score passed the check")
	}
}

func TestRoundTail(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	done := []time.Time{at(40), at(10), at(20), at(100), at(30)}
	// Two workers: after the third item (at 30ms) fewer than two remain.
	if got := roundTail(start, done, 2); got != 70*time.Millisecond {
		t.Errorf("roundTail = %v, want 70ms", got)
	}
	if got := roundTail(start, done[:2], 4); got != 40*time.Millisecond {
		t.Errorf("roundTail of an underfilled round = %v, want the whole round, 40ms", got)
	}
}
