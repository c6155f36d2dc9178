package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudeval/internal/loadgen"
)

const sample = `goos: linux
pkg: cloudeval
BenchmarkZeroShotSerial-8    	       1	3000000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotEngine-8    	       1	 900000000 ns/op	      6675 cache-hits	         0.483 gpt4-unit-test	      5120 unit-tests-executed
BenchmarkZeroShotWarmStore   	       1	 500000000 ns/op	         0.483 gpt4-unit-test	      5120 store-hits	         0 unit-tests-executed
BenchmarkColdPathUnitTest-8  	   46807	     25000 ns/op	   13870 B/op	     227 allocs/op
BenchmarkColdPathCampaign-8  	     141	   8220631 ns/op	 3110758 B/op	   50274 allocs/op
PASS
`

// healthy is a run of every gated benchmark, with the -cpu points CI
// records, in which every row passes: CampaignParallel scales 3.2x,
// StoreAppendParallel 2x, snapshot Open is 4.4x faster over 5000
// records, and the pipelined campaign 8x faster at 4 cores (the
// headline) but 20x at 1 core.
const healthy = `goos: linux
pkg: cloudeval
BenchmarkZeroShotSerial-4       	       1	3000000000 ns/op	         0.483 gpt4-unit-test
BenchmarkZeroShotEngine-4       	       1	 900000000 ns/op	      6675 cache-hits	      5120 unit-tests-executed
BenchmarkColdPathUnitTest-4     	   46807	     25000 ns/op	   13870 B/op	     227 allocs/op
BenchmarkColdPathCampaign-4     	     141	   8220631 ns/op	 3110758 B/op	   50274 allocs/op
BenchmarkGenerateBatched-4      	      50	  11000000 ns/op	 4340000 B/op	   15729 allocs/op
BenchmarkCampaignParallel       	       3	 320000000 ns/op	 4000000 B/op	   20000 allocs/op
BenchmarkCampaignParallel-4     	       4	 100000000 ns/op	 4100000 B/op	   20500 allocs/op
BenchmarkStoreAppendParallel    	    1000	     30000 ns/op	         8.000 frames-per-flush
BenchmarkStoreAppendParallel-4  	    4000	     15000 ns/op	        24.00 frames-per-flush
BenchmarkStoreOpenWarm-4        	      20	  22000000 ns/op	      5000 records-replayed
BenchmarkStoreOpenSnapshot-4    	      80	   5000000 ns/op	      5000 records-replayed
BenchmarkStoreColdGet-4         	  200000	      6500 ns/op	     824 B/op	      11 allocs/op
BenchmarkCampaignPipelined      	       5	 200000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignPipelined-4    	      10	 150000000 ns/op	        64.00 peak-gen-inflight
BenchmarkCampaignInterleaved    	       1	4000000000 ns/op
BenchmarkCampaignInterleaved-4  	       1	1200000000 ns/op
PASS
`

// edit returns bench with every line starting with prefix replaced by
// repl, or dropped when repl is "".
func edit(bench, prefix, repl string) string {
	var out []string
	found := false
	for _, line := range strings.Split(bench, "\n") {
		if strings.HasPrefix(line, prefix) {
			found = true
			if repl == "" {
				continue
			}
			line = repl
		}
		out = append(out, line)
	}
	if !found {
		panic("no bench line starts with " + prefix)
	}
	return strings.Join(out, "\n")
}

func mustParse(t *testing.T, bench string) map[string]BenchResult {
	t.Helper()
	got, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func rowNamed(t *testing.T, rows []gate, name string) gate {
	t.Helper()
	for _, g := range rows {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no gate row %q", name)
	return gate{}
}

// rowCase evaluates one row on bench output against a baseline run.
type rowCase struct {
	name     string
	gate     string
	bench    string
	baseline string // bench output recorded as the baseline
	cpus     int
	want     string // "pass", "fail" or "skip"
}

func checkRows(t *testing.T, cases []rowCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.gate+"/"+tc.name, func(t *testing.T) {
			base := mustParse(t, tc.baseline)
			r := rowNamed(t, expand(gates, base, true, true), tc.gate).eval(mustParse(t, tc.bench), base, tc.cpus)
			got := "pass"
			if r.Skipped != "" {
				got = "skip"
			}
			if r.Failed != "" {
				got = "fail"
			}
			if got != tc.want {
				t.Errorf("got %s, want %s: %+v", got, tc.want, r)
			}
		})
	}
}

// TestRatioRows covers the same-run ratio rows, with the CPU count
// passed explicitly so the 4-CPU enforcement runs on any machine.
func TestRatioRows(t *testing.T) {
	slowParallel := edit(healthy, "BenchmarkCampaignParallel-4", "BenchmarkCampaignParallel-4 4 200000000 ns/op")
	slowStore := edit(healthy, "BenchmarkStoreAppendParallel-4", "BenchmarkStoreAppendParallel-4 4000 25000 ns/op")
	slowPipe := edit(healthy, "BenchmarkCampaignPipelined-4", "BenchmarkCampaignPipelined-4 10 1000000000 ns/op")
	tinyOpen := strings.ReplaceAll(healthy, "5000 records-replayed", "100 records-replayed")
	checkRows(t, []rowCase{
		{name: "3.2x", gate: "parallel-scaling", bench: healthy, cpus: 4, want: "pass"},
		{name: "1.6x", gate: "parallel-scaling", bench: slowParallel, cpus: 4, want: "fail"},
		{name: "absent", gate: "parallel-scaling", bench: edit(healthy, "BenchmarkCampaignParallel", ""), cpus: 4, want: "fail"},
		{name: "no -cpu 4 point", gate: "parallel-scaling", bench: edit(healthy, "BenchmarkCampaignParallel-4", ""), cpus: 4, want: "fail"},
		{name: "2 CPUs", gate: "parallel-scaling", bench: slowParallel, cpus: 2, want: "skip"},

		{name: "2.0x", gate: "store-scaling", bench: healthy, cpus: 4, want: "pass"},
		{name: "exactly 1.5x", gate: "store-scaling", bench: edit(healthy, "BenchmarkStoreAppendParallel-4", "BenchmarkStoreAppendParallel-4 4000 20000 ns/op"), cpus: 4, want: "pass"},
		{name: "1.2x", gate: "store-scaling", bench: slowStore, cpus: 4, want: "fail"},
		{name: "absent", gate: "store-scaling", bench: edit(healthy, "BenchmarkStoreAppendParallel", ""), cpus: 4, want: "fail"},
		{name: "2 CPUs", gate: "store-scaling", bench: slowStore, cpus: 2, want: "skip"},

		{name: "4.4x", gate: "snapshot-open", bench: healthy, cpus: 2, want: "pass"},
		{name: "2.75x", gate: "snapshot-open", bench: edit(healthy, "BenchmarkStoreOpenSnapshot", "BenchmarkStoreOpenSnapshot-4 80 8000000 ns/op 5000 records-replayed"), cpus: 4, want: "fail"},
		{name: "absent", gate: "snapshot-open", bench: edit(edit(healthy, "BenchmarkStoreOpenWarm", ""), "BenchmarkStoreOpenSnapshot", ""), cpus: 4, want: "fail"},
		{name: "100-record fixture", gate: "snapshot-open", bench: tinyOpen, cpus: 4, want: "skip"},

		{name: "8x", gate: "pipeline-overlap", bench: healthy, cpus: 4, want: "pass"},
		{name: "1.2x", gate: "pipeline-overlap", bench: slowPipe, cpus: 4, want: "fail"},
		{name: "absent", gate: "pipeline-overlap", bench: edit(healthy, "BenchmarkCampaignPipelined", ""), cpus: 4, want: "fail"},
		{name: "2 CPUs", gate: "pipeline-overlap", bench: slowPipe, cpus: 2, want: "skip"},
	})

	// The overlap is read at the headline, the last -cpu point parsed:
	// 8x at 4 cores, not the 20x of the 1-core points.
	r := rowNamed(t, gates, "pipeline-overlap").eval(mustParse(t, healthy), nil, 4)
	if r.Value != 8 {
		t.Errorf("pipeline-overlap value = %v, want 8 from the 4-core points", r.Value)
	}
}

// TestCapRows covers the fixed caps, each pinned at its boundary.
func TestCapRows(t *testing.T) {
	cold := func(ns string) string {
		return edit(healthy, "BenchmarkColdPathUnitTest", "BenchmarkColdPathUnitTest-4 46807 "+ns+" ns/op 13870 B/op 227 allocs/op")
	}
	batched := func(allocs string) string {
		return edit(healthy, "BenchmarkGenerateBatched", "BenchmarkGenerateBatched-4 50 11000000 ns/op"+allocs)
	}
	coldGet := func(allocs string) string {
		return edit(healthy, "BenchmarkStoreColdGet", "BenchmarkStoreColdGet-4 200000 6500 ns/op"+allocs)
	}
	// The loadgen pseudo-benchmark written as a bench line.
	lg := func(p99, rate string) string {
		return "BenchmarkLoadgen 200 0 ns/op " + p99 + " p99-ms " + rate + " error-rate\n"
	}
	checkRows(t, []rowCase{
		{name: "4x below pre-overhaul", gate: "cold-unittest", bench: healthy, cpus: 2, want: "pass"},
		{name: "exactly 2x", gate: "cold-unittest", bench: cold("49906"), cpus: 2, want: "pass"},
		{name: "1.6x", gate: "cold-unittest", bench: cold("62383"), cpus: 2, want: "fail"},
		{name: "absent", gate: "cold-unittest", bench: edit(healthy, "BenchmarkColdPathUnitTest", ""), cpus: 2, want: "fail"},

		{name: "15729", gate: "generate-batched-allocs", bench: healthy, cpus: 2, want: "pass"},
		{name: "35500", gate: "generate-batched-allocs", bench: batched(" 1 B/op 35500 allocs/op"), cpus: 2, want: "pass"},
		{name: "35501", gate: "generate-batched-allocs", bench: batched(" 1 B/op 35501 allocs/op"), cpus: 2, want: "fail"},
		{name: "no -benchmem", gate: "generate-batched-allocs", bench: batched(""), cpus: 2, want: "skip"},
		{name: "absent", gate: "generate-batched-allocs", bench: edit(healthy, "BenchmarkGenerateBatched", ""), cpus: 2, want: "fail"},

		{name: "11", gate: "store-cold-get-allocs", bench: healthy, cpus: 2, want: "pass"},
		{name: "25", gate: "store-cold-get-allocs", bench: coldGet(" 1 B/op 25 allocs/op"), cpus: 2, want: "fail"},
		{name: "no -benchmem", gate: "store-cold-get-allocs", bench: coldGet(""), cpus: 2, want: "skip"},
		{name: "absent", gate: "store-cold-get-allocs", bench: edit(healthy, "BenchmarkStoreColdGet", ""), cpus: 2, want: "fail"},

		{name: "40ms", gate: "loadgen-p99-ms", bench: lg("40", "0"), cpus: 4, want: "pass"},
		{name: "600ms", gate: "loadgen-p99-ms", bench: lg("600", "0"), cpus: 4, want: "fail"},
		{name: "2 CPUs", gate: "loadgen-p99-ms", bench: lg("600", "0"), cpus: 2, want: "skip"},

		{name: "clean", gate: "loadgen-error-rate", bench: lg("40", "0"), cpus: 1, want: "pass"},
		{name: "1%", gate: "loadgen-error-rate", bench: lg("40", "0.01"), cpus: 1, want: "pass"},
		{name: "5%", gate: "loadgen-error-rate", bench: lg("40", "0.05"), cpus: 1, want: "fail"},
	})
}

// TestRegressionRows covers the rows bounded by the baseline's own
// measurements.
func TestRegressionRows(t *testing.T) {
	fastEngine := edit(healthy, "BenchmarkZeroShotEngine", "BenchmarkZeroShotEngine-4 1 450000000 ns/op")
	coldAllocs := func(allocs string) string {
		return edit(healthy, "BenchmarkColdPathUnitTest", "BenchmarkColdPathUnitTest-4 46807 25000 ns/op"+allocs)
	}
	checkRows(t, []rowCase{
		{name: "at parity", gate: "engine-vs-serial", bench: healthy, baseline: healthy, cpus: 2, want: "pass"},
		{name: "100% over", gate: "engine-vs-serial", bench: healthy, baseline: fastEngine, cpus: 2, want: "fail"},
		{name: "absent", gate: "engine-vs-serial", bench: edit(healthy, "BenchmarkZeroShotEngine", ""), baseline: healthy, cpus: 2, want: "fail"},
		{name: "absent from baseline", gate: "engine-vs-serial", bench: healthy, cpus: 2, want: "fail"},

		{name: "at parity", gate: "allocs:ColdPathUnitTest", bench: healthy, baseline: healthy, cpus: 2, want: "pass"},
		{name: "15% over", gate: "allocs:ColdPathUnitTest", bench: coldAllocs(" 1 B/op 261 allocs/op"), baseline: healthy, cpus: 2, want: "pass"},
		{name: "127% over", gate: "allocs:ColdPathUnitTest", bench: healthy, baseline: coldAllocs(" 1 B/op 100 allocs/op"), cpus: 2, want: "fail"},
		{name: "no -benchmem", gate: "allocs:ColdPathUnitTest", bench: coldAllocs(""), baseline: healthy, cpus: 2, want: "skip"},
		{name: "absent", gate: "allocs:ColdPathUnitTest", bench: edit(healthy, "BenchmarkColdPathUnitTest", ""), baseline: healthy, cpus: 2, want: "fail"},
	})

	// The engine limit is the baseline's own ratio (0.3) plus 20%.
	base := mustParse(t, healthy)
	if r := rowNamed(t, gates, "engine-vs-serial").eval(base, base, 2); r.Value != 0.3 || r.Limit != 0.36 {
		t.Errorf("engine-vs-serial = %+v, want value 0.3, limit 0.36", r)
	}
	// One allocation row per baseline benchmark that records allocs/op,
	// in name order; benchmarks without one never participate.
	var allocRows []string
	for _, g := range expand(gates, mustParse(t, healthy+sample), true, false) {
		if strings.HasPrefix(g.name, "allocs:") {
			allocRows = append(allocRows, g.name)
		}
	}
	want := "allocs:CampaignParallel allocs:ColdPathCampaign allocs:ColdPathUnitTest allocs:GenerateBatched allocs:StoreColdGet"
	if got := strings.Join(allocRows, " "); got != want {
		t.Errorf("allocation rows = %s, want %s", got, want)
	}
}

// TestGateLimitsPinned holds every row at the threshold CI enforced
// before the gates became a table, so a loosening shows up as a diff
// to this test.
func TestGateLimitsPinned(t *testing.T) {
	type pin struct {
		kind    kind
		limit   float64
		minCPUs int
	}
	want := map[string]pin{
		"parallel-scaling":        {atLeast, 2.5, 4},
		"store-scaling":           {atLeast, 1.5, 4},
		"snapshot-open":           {atLeast, 3, 0},
		"pipeline-overlap":        {atLeast, 1.54, 4},
		"cold-unittest":           {atMost, 49906, 0},
		"generate-batched-allocs": {atMost, 35500, 0},
		"store-cold-get-allocs":   {atMost, 24, 0},
		"loadgen-p99-ms":          {atMost, 500, 4},
		"loadgen-error-rate":      {atMost, 0.01, 0},
		"engine-vs-serial":        {regress, 1.20, 0},
		"allocs":                  {regress, 1.15, 0},
	}
	if len(gates) != len(want) {
		t.Errorf("%d gate rows, want %d", len(gates), len(want))
	}
	for _, g := range gates {
		if got := (pin{g.kind, g.limit, g.minCPUs}); got != want[g.name] {
			t.Errorf("%s = %+v, want %+v", g.name, got, want[g.name])
		}
	}
	// The snapshot row trusts only fixtures of 2000 records or more.
	open := rowNamed(t, gates, "snapshot-open")
	at := func(n string) string {
		return open.skip(mustParse(t, strings.ReplaceAll(healthy, "5000 records-replayed", n+" records-replayed")))
	}
	if at("1999") == "" || at("2000") != "" {
		t.Errorf("snapshot-open skips at 1999: %q, at 2000: %q; want a skip only below 2000", at("1999"), at("2000"))
	}
}

func TestParseBench(t *testing.T) {
	got := mustParse(t, sample)
	if len(got) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(got))
	}
	eng := got["ZeroShotEngine"]
	if eng.NsPerOp != 9e8 || eng.Metrics["cache-hits"] != 6675 || eng.Metrics["unit-tests-executed"] != 5120 {
		t.Errorf("ZeroShotEngine = %+v", eng)
	}
	// GOMAXPROCS suffix is optional (single-core runs omit it).
	if got["ZeroShotWarmStore"].Metrics["store-hits"] != 5120 {
		t.Errorf("ZeroShotWarmStore = %+v", got["ZeroShotWarmStore"])
	}
	// -benchmem columns land in dedicated fields, not the metric map.
	cold := got["ColdPathUnitTest"]
	if cold.BytesPerOp != 13870 || cold.AllocsPerOp != 227 {
		t.Errorf("ColdPathUnitTest = %+v", cold)
	}
	if _, ok := cold.Metrics["B/op"]; ok {
		t.Error("B/op leaked into the metric map")
	}
	if r, err := rowNamed(t, gates, "engine-vs-serial").value(got); err != nil || r != 0.3 {
		t.Errorf("engine/serial ratio = %v, %v; want 0.3", r, err)
	}
}

func TestParseBenchFoldsCPUVariants(t *testing.T) {
	got := mustParse(t, healthy)
	cp, ok := got["CampaignParallel"]
	if !ok {
		t.Fatalf("CampaignParallel missing; parsed %v", got)
	}
	if cp.ByCPU["1"] != 3.2e8 || cp.ByCPU["4"] != 1e8 {
		t.Errorf("ByCPU = %v, want 1:3.2e8 4:1e8", cp.ByCPU)
	}
	// Headline fields hold the last -cpu line parsed.
	if cp.NsPerOp != 1e8 || cp.AllocsPerOp != 20500 {
		t.Errorf("headline = %+v, want the -4 line", cp)
	}
	row := rowNamed(t, gates, "parallel-scaling")
	if scale, err := row.value(got); err != nil || scale != 3.2 {
		t.Errorf("parallel scaling = %v, %v; want 3.2", scale, err)
	}
	// A single-cpu run (no -4 line) yields no scaling figure.
	if _, err := row.value(mustParse(t, edit(healthy, "BenchmarkCampaignParallel-4", ""))); err == nil {
		t.Error("parallel scaling reported without -cpu 1,4 data")
	}
}

// healthyReport is a plausible loadgen report for a healthy service.
func healthyReport() *loadgen.Report {
	return &loadgen.Report{
		Target: "http://127.0.0.1:1", Requests: 200, Concurrency: 8,
		DurationSec: 2, ThroughputQPS: 100,
		LatencyMs: loadgen.Latency{P50: 3, P95: 12, P99: 40, Mean: 5, Max: 55},
	}
}

// guard runs benchguard end to end on bench output with an optional
// baseline (bench output) and loadgen report, and returns the artifact
// it wrote along with the verdict.
func guard(t *testing.T, bench, baseline string, rep *loadgen.Report, cpus int) (Artifact, error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "bench.txt"), filepath.Join(dir, "BENCH_abc.json")
	if err := os.WriteFile(in, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	var basePath, repPath string
	if baseline != "" {
		basePath = filepath.Join(dir, "baseline.json")
		data, err := json.Marshal(Artifact{Sha: "baseline", Benchmarks: mustParse(t, baseline)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(basePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rep != nil {
		repPath = filepath.Join(dir, "loadgen.json")
		if err := loadgen.WriteReport(repPath, *rep); err != nil {
			t.Fatal(err)
		}
	}
	runErr := run(in, out, "abc", basePath, repPath, cpus)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written (run: %v): %v", runErr, err)
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	return art, runErr
}

func result(t *testing.T, art Artifact, gate string) Result {
	t.Helper()
	for _, r := range art.Gates {
		if r.Gate == gate {
			return r
		}
	}
	t.Fatalf("artifact has no %s row: %+v", gate, art.Gates)
	return Result{}
}

// TestRegressionGate: a healthy run passes every row at 4 CPUs, and the
// artifact records each evaluated row; a 100% engine regression fails.
func TestRegressionGate(t *testing.T) {
	art, err := guard(t, healthy, healthy, healthyReport(), 4)
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if art.Sha != "abc" || art.Benchmarks["ColdPathUnitTest"].AllocsPerOp != 227 {
		t.Errorf("artifact = sha %q, ColdPathUnitTest %+v", art.Sha, art.Benchmarks["ColdPathUnitTest"])
	}
	// 11 table rows, the allocation row expanded over 5 benchmarks.
	if len(art.Gates) != 15 {
		t.Errorf("artifact records %d gate rows, want 15: %+v", len(art.Gates), art.Gates)
	}
	for _, r := range art.Gates {
		if r.Skipped != "" || r.Failed != "" {
			t.Errorf("healthy run: %+v", r)
		}
	}
	if r := result(t, art, "engine-vs-serial"); r.Value != 0.3 || r.Limit != 0.36 {
		t.Errorf("engine-vs-serial = %+v", r)
	}

	fastEngine := edit(healthy, "BenchmarkZeroShotEngine", "BenchmarkZeroShotEngine-4 1 450000000 ns/op")
	if _, err := guard(t, healthy, fastEngine, nil, 4); err == nil || !strings.Contains(err.Error(), "engine-vs-serial") {
		t.Fatalf("a 100%% engine regression gave %v", err)
	}
}

// TestAllocGate: every failing allocation row is reported, not only the
// first.
func TestAllocGate(t *testing.T) {
	if _, err := guard(t, healthy, healthy, nil, 2); err != nil {
		t.Fatalf("alloc rows failed at parity: %v", err)
	}
	lean := edit(edit(healthy,
		"BenchmarkColdPathUnitTest", "BenchmarkColdPathUnitTest-4 46807 25000 ns/op 13870 B/op 100 allocs/op"),
		"BenchmarkColdPathCampaign", "BenchmarkColdPathCampaign-4 141 8220631 ns/op 3110758 B/op 20000 allocs/op")
	_, err := guard(t, healthy, lean, nil, 2)
	if err == nil {
		t.Fatal("alloc rows passed two regressions")
	}
	for _, row := range []string{"allocs:ColdPathUnitTest", "allocs:ColdPathCampaign"} {
		if !strings.Contains(err.Error(), row) {
			t.Errorf("verdict does not name %s: %v", row, err)
		}
	}
}

// TestArtifactWrittenOnBadBaseline pins the CI contract: the
// BENCH_<sha>.json artifact is written even when the baseline or the
// loadgen report is missing or corrupt (the workflow uploads it with
// `if: always()`), and the bad input still fails the run afterwards.
func TestArtifactWrittenOnBadBaseline(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.txt")
	corrupt := filepath.Join(dir, "corrupt.json")
	for path, data := range map[string]string{benchPath: healthy, corrupt: "{not json"} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, paths := range map[string][2]string{
		"missing baseline": {filepath.Join(dir, "nope.json"), ""},
		"corrupt baseline": {corrupt, ""},
		"corrupt loadgen":  {"", corrupt},
	} {
		outPath := filepath.Join(dir, "BENCH_"+strings.ReplaceAll(name, " ", "_")+".json")
		if err := run(benchPath, outPath, "bad", paths[0], paths[1], 4); err == nil {
			t.Errorf("%s did not fail the run", name)
		}
		if _, err := os.Stat(outPath); err != nil {
			t.Errorf("artifact not written on %s: %v", name, err)
		}
	}
}

func TestColdSpeedupGate(t *testing.T) {
	slow := edit(healthy, "BenchmarkColdPathUnitTest", "BenchmarkColdPathUnitTest-4 46807 62383 ns/op 13870 B/op 227 allocs/op")
	art, err := guard(t, slow, healthy, nil, 2)
	if err == nil || !strings.Contains(err.Error(), "cold-unittest") {
		t.Fatalf("a 1.6x cold path gave %v", err)
	}
	if r := result(t, art, "cold-unittest"); r.Value != 62383 || r.Limit != 49906 || r.Failed == "" {
		t.Errorf("cold-unittest = %+v", r)
	}
}

func TestAllocCapGate(t *testing.T) {
	fat := edit(healthy, "BenchmarkGenerateBatched", "BenchmarkGenerateBatched-4 50 11000000 ns/op 1 B/op 40000 allocs/op")
	// The baseline records the same allocations, so only the fixed cap
	// can catch this: it does not move with baseline re-records.
	art, err := guard(t, fat, fat, nil, 2)
	if err == nil || !strings.Contains(err.Error(), "generate-batched-allocs") {
		t.Fatalf("40000 allocs/op against the 35500 cap gave %v", err)
	}
	if r := result(t, art, "generate-batched-allocs"); r.Limit != 35500 || r.Value != 40000 {
		t.Errorf("generate-batched-allocs = %+v", r)
	}
	if r := result(t, art, "allocs:GenerateBatched"); r.Failed != "" {
		t.Errorf("relative alloc row failed at parity: %+v", r)
	}
}

func TestColdGetAllocCapGate(t *testing.T) {
	fat := edit(healthy, "BenchmarkStoreColdGet", "BenchmarkStoreColdGet-4 200000 6500 ns/op 824 B/op 25 allocs/op")
	art, err := guard(t, fat, fat, nil, 2)
	if err == nil || !strings.Contains(err.Error(), "store-cold-get-allocs") {
		t.Fatalf("25 allocs/op against the 24 cap gave %v", err)
	}
	if r := result(t, art, "store-cold-get-allocs"); r.Limit != 24 || r.Value != 25 {
		t.Errorf("store-cold-get-allocs = %+v", r)
	}
}

// TestOpenSpeedupGate: the measured speedup is recorded in the
// artifact, and a toy fixture skips loudly instead of failing.
func TestOpenSpeedupGate(t *testing.T) {
	art, err := guard(t, healthy, healthy, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := result(t, art, "snapshot-open"); r.Value != 4.4 || r.Limit != 3 || r.Skipped != "" {
		t.Errorf("snapshot-open = %+v, want 4.4 against 3", r)
	}
	tiny := strings.ReplaceAll(edit(healthy, "BenchmarkStoreOpenSnapshot", "BenchmarkStoreOpenSnapshot-4 80 20000000 ns/op 5000 records-replayed"),
		"5000 records-replayed", "100 records-replayed")
	art, err = guard(t, tiny, healthy, nil, 4)
	if err != nil {
		t.Fatalf("a 100-record fixture failed instead of skipping: %v", err)
	}
	if r := result(t, art, "snapshot-open"); r.Skipped == "" {
		t.Errorf("snapshot-open on a 100-record fixture = %+v, want skipped", r)
	}
}

// TestPipelineOverlapInArtifact: the measured overlap folds into the
// artifact whether the row is enforced or skipped.
func TestPipelineOverlapInArtifact(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		art, err := guard(t, healthy, healthy, nil, cpus)
		if err != nil {
			t.Fatal(err)
		}
		r := result(t, art, "pipeline-overlap")
		if r.Value != 8 || (r.Skipped != "") != (cpus < 4) {
			t.Errorf("%d CPUs: pipeline-overlap = %+v, want value 8, skipped only below 4 CPUs", cpus, r)
		}
	}
}

// TestLoadgenLatencyGate: the loadgen rows run with -loadgen alone, the
// report folds into the artifact, and a seeded p99 regression fails at
// 4 CPUs but skips loudly below.
func TestLoadgenLatencyGate(t *testing.T) {
	art, err := guard(t, sample, "", healthyReport(), 4)
	if err != nil {
		t.Fatalf("healthy loadgen report failed: %v", err)
	}
	if art.Loadgen == nil || art.Loadgen.LatencyMs.P99 != 40 || art.Loadgen.Requests != 200 {
		t.Errorf("loadgen report not folded into the artifact: %+v", art.Loadgen)
	}
	if len(art.Gates) != 2 {
		t.Errorf("without -baseline only the 2 loadgen rows run, got %+v", art.Gates)
	}
	slow := healthyReport()
	slow.LatencyMs.P99 = 600
	if _, err := guard(t, sample, "", slow, 4); err == nil {
		t.Fatal("a 600ms p99 passed the 500ms cap")
	}
	art, err = guard(t, sample, "", slow, 2)
	if err != nil {
		t.Fatalf("p99 row did not skip on 2 CPUs: %v", err)
	}
	if r := result(t, art, "loadgen-p99-ms"); r.Skipped == "" || r.Value != 600 {
		t.Errorf("loadgen-p99-ms on 2 CPUs = %+v", r)
	}
}

// TestLoadgenErrorRateGate: a failing error rate names each error
// class, so CI logs say what broke.
func TestLoadgenErrorRateGate(t *testing.T) {
	bad := healthyReport()
	bad.ErrorRate = 0.05
	bad.Errors = map[string]int{"rate_limited": 8, "http_500": 2}
	_, err := guard(t, sample, "", bad, 2)
	if err == nil {
		t.Fatal("a 5% error rate passed the 1% cap")
	}
	if !strings.Contains(err.Error(), "http_500=2 rate_limited=8") {
		t.Errorf("failure does not name the error classes: %v", err)
	}
}
