package main

import (
	"fmt"
	"math"
	"sort"
)

// result is the run's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints, on every workload.
// Latency is per item: for a campaign, from the campaign's start (when
// every pair or sample is submitted) until the item is scored, median
// over the run's campaigns; for service-mix, from a request's scheduled
// send time until its response, median over the run's one-second
// windows.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// traceOps are the loadgen op types of the service trace.
var traceOps = []string{"eval", "eval_model", "leaderboard", "stats", "campaign"}

// allocLayers are the layer calls the serial allocation pass counts.
var allocLayers = []string{
	"inference.provider", "inference.generate", "llm.postprocess",
	"textmetrics.bleu", "textmetrics.edit_distance", "textmetrics.exact_match",
	"yamlmatch.kv_exact", "yamlmatch.kv_wildcard",
	"engine.unit_test", "unittest.run",
	"store.put", "store.get", "store.put_gen", "store.get_gen",
}

// families are the workload families unit-test time is split by.
var families = []string{"kubernetes", "envoy", "istio", "compose", "helm"}

// perLayer are the metrics a traced run prints, on every workload. A
// layer a workload never calls reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"dataset.generate_ms", "ms", "lower"},
		{"augment.expand_ms", "ms", "lower"},
		{"store.open_ms", "ms", "lower"},
		{"store.open.scanned_frames", "count", "lower"},
		{"store.open.snapshot_frames", "count", "higher"},

		{"inference.generate.calls", "count", "lower"},
		{"inference.generate.busy_ms", "ms", "lower"},
		{"inference.provider.calls", "count", "lower"},
		{"inference.provider.busy_ms", "ms", "lower"},
		{"inference.hit_ratio", "ratio", "higher"},
		{"llm.postprocess.busy_ms", "ms", "lower"},
	}
	for _, m := range []string{"textmetrics.bleu", "textmetrics.edit_distance", "textmetrics.exact_match", "yamlmatch.kv_exact", "yamlmatch.kv_wildcard"} {
		d = append(d, metricDef{m + ".calls", "count", "lower"}, metricDef{m + ".busy_ms", "ms", "lower"})
	}
	d = append(d,
		metricDef{"engine.unit_test.calls", "count", "lower"},
		metricDef{"engine.unit_test.self_ms", "ms", "lower"},
		metricDef{"engine.executed", "count", "lower"},
		metricDef{"engine.cache_hits", "count", "higher"},
		metricDef{"engine.store_hits", "count", "higher"},
		metricDef{"engine.hit_ratio", "ratio", "higher"},
		metricDef{"engine.queue_wait_ms", "ms", "lower"},

		metricDef{"unittest.run.calls", "count", "lower"},
		metricDef{"unittest.run.busy_ms", "ms", "lower"},
		metricDef{"unittest.run.p50_us", "us", "lower"},
		metricDef{"unittest.run.p99_us", "us", "lower"},
		metricDef{"unittest.run.errors", "count", "lower"},
	)
	for _, f := range families {
		d = append(d, metricDef{"unittest.run." + f + ".busy_ms", "ms", "lower"})
	}
	d = append(d, metricDef{"analysis.round_tail_ms", "ms", "lower"})
	for _, op := range []string{"get", "get_gen", "put", "put_gen"} {
		d = append(d, metricDef{"store." + op + ".calls", "count", "lower"}, metricDef{"store." + op + ".busy_ms", "ms", "lower"})
	}
	d = append(d,
		metricDef{"store.hot_cache_hit_ratio", "ratio", "higher"},
		metricDef{"store.frames_per_flush", "count", "higher"},
		metricDef{"store.bytes_per_record", "B", "lower"},
		metricDef{"store.appended_frames", "count", "lower"},
	)
	for _, r := range []string{"eval", "leaderboard", "stats", "campaign"} {
		d = append(d,
			metricDef{"server." + r + ".requests", "count", "higher"},
			metricDef{"server." + r + ".errors", "count", "lower"},
			metricDef{"server." + r + ".busy_p50_ms", "ms", "lower"},
			metricDef{"server." + r + ".busy_p99_ms", "ms", "lower"},
		)
	}
	d = append(d,
		metricDef{"loadgen.send_lag_p99_ms", "ms", "lower"},
		metricDef{"loadgen.samples", "count", "higher"},
		metricDef{"loadgen.eval_miss_share", "ratio", "lower"},
	)
	for _, op := range traceOps {
		d = append(d, metricDef{"loadgen.ops." + op, "count", "higher"})
	}
	d = append(d,
		metricDef{"runtime.allocs_per_pair", "allocs", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
	)
	for _, l := range allocLayers {
		d = append(d, metricDef{l + ".allocs_per_call", "allocs", "lower"})
	}
	d = append(d,
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
	return d
}

// newResult renders values against defs: every declared metric is
// printed (0 where a layer was never called), and a value under an
// undeclared name is a bug in the benchmark. With required set, a
// declared metric without a value is a bug too.
func newResult(defs []metricDef, values map[string]float64, required bool) (result, error) {
	declared := make(map[string]bool, len(defs))
	res := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := values[d.Name]
		if !ok && required {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not a number: %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !declared[name] {
			return res, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return res, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile reads q (0..1) from xs by nearest rank; xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(float64(len(s))*q)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
