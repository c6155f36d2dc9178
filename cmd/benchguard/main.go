// Command benchguard turns `go test -bench` output into a JSON
// benchmark artifact and enforces the CI bench-regression gates.
//
//	go test -bench 'ZeroShot|ColdPath' -benchmem -benchtime 1x -run '^$' . | tee bench.txt
//	benchguard -in bench.txt -out BENCH_$SHA.json -sha $SHA \
//	    -baseline ci/bench-baseline.json -loadgen loadgen.json
//
// The artifact records ns/op, B/op, allocs/op and every ReportMetric
// value (cache hit counts, unit-tests-executed, ...) for each
// benchmark. Benchmarks run at several -cpu values fold into one
// entry whose ns_per_op_by_cpu map keeps each GOMAXPROCS point.
//
// Every gate is one row of the gates table below, and the artifact
// records each evaluated row with its value and limit. With -baseline
// the benchmark rows run; with -loadgen the `cloudeval loadgen -out`
// report joins the run as the pseudo-benchmark "Loadgen" and its rows
// run. Every failing row is reported, and skipped rows say why.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cloudeval/internal/loadgen"
)

// kind is how a gate row compares its value with its limit.
type kind int

const (
	atLeast kind = iota // same-run ratio: value ≥ limit, hardware-independent
	atMost              // fixed cap: value ≤ limit, unmoved by baseline re-records
	regress             // value ≤ the same quantity in the baseline × limit
)

// A measure names one number of a run: a benchmark's headline ns/op,
// its ns/op at one -cpu point, its allocs/op, or a reported metric.
type measure struct {
	bench string
	unit  string // "ns/op", "allocs/op" or a ReportMetric unit
	cpu   string // with "ns/op": the point at this GOMAXPROCS
}

func ns(bench string) measure           { return measure{bench: bench, unit: "ns/op"} }
func nsAt(bench, cpu string) measure    { return measure{bench: bench, unit: "ns/op", cpu: cpu} }
func allocs(bench string) measure       { return measure{bench: bench, unit: "allocs/op"} }
func metric(bench, unit string) measure { return measure{bench: bench, unit: unit} }

func (m measure) String() string {
	if m.cpu != "" {
		return fmt.Sprintf("%s %s at -cpu %s", m.bench, m.unit, m.cpu)
	}
	return m.bench + " " + m.unit
}

// of reads m from a run; ok is false when the run did not record it.
func (m measure) of(run map[string]BenchResult) (float64, bool) {
	b, ok := run[m.bench]
	switch {
	case !ok:
		return 0, false
	case m.unit == "allocs/op":
		return b.AllocsPerOp, true
	case m.unit != "ns/op":
		v, ok := b.Metrics[m.unit]
		return v, ok
	case m.cpu != "":
		return b.ByCPU[m.cpu], b.ByCPU[m.cpu] > 0
	}
	return b.NsPerOp, b.NsPerOp > 0
}

// A skipRule returns why a row cannot be trusted on this run, or "" to
// enforce it. An absent benchmark is never a skip: the row fails.
type skipRule func(run map[string]BenchResult) string

// gate is one row of the table: its value is num (÷ den when set).
type gate struct {
	name     string
	kind     kind
	num, den measure
	limit    float64
	minCPUs  int      // skip on machines with fewer CPUs
	skip     skipRule // optional
	why      string   // what a failure means
}

const (
	loadgenBench      = "Loadgen" // the pseudo-benchmark a -loadgen report becomes
	eachBaselineBench = "*"       // one row per baseline benchmark that records allocs/op
)

// gates is every CI gate. Changing a limit here is a reviewed change to
// what CI enforces; TestGateLimitsPinned holds each value.
var gates = []gate{
	{name: "parallel-scaling", kind: atLeast, num: nsAt("CampaignParallel", "1"), den: nsAt("CampaignParallel", "4"), limit: 2.5,
		minCPUs: 4, why: "a shared lock is serializing the campaign"},
	{name: "store-scaling", kind: atLeast, num: nsAt("StoreAppendParallel", "1"), den: nsAt("StoreAppendParallel", "4"), limit: 1.5,
		minCPUs: 4, why: "appends are serializing on a shared committer"},
	{name: "snapshot-open", kind: atLeast, num: ns("StoreOpenWarm"), den: ns("StoreOpenSnapshot"), limit: 3,
		skip: fewRecords(2000, "StoreOpenWarm", "StoreOpenSnapshot"), why: "the index-sidecar fast path is not paying for itself"},
	{name: "pipeline-overlap", kind: atLeast, num: ns("CampaignInterleaved"), den: ns("CampaignPipelined"), limit: 1.54,
		minCPUs: 4, why: "provider latency is paid in sequence with execution again"},

	{name: "cold-unittest", kind: atMost, num: ns("ColdPathUnitTest"), limit: 99812 / 2,
		why: "the cold path is no longer 2x below its pre-overhaul 99,812 ns/op"},
	{name: "generate-batched-allocs", kind: atMost, num: allocs("GenerateBatched"), limit: 35500,
		why: "the cap is 50% of the pre-diet 71,015 allocs/op"},
	{name: "store-cold-get-allocs", kind: atMost, num: allocs("StoreColdGet"), limit: 24,
		why: "the cold-read path is growing per-Get garbage"},
	{name: "loadgen-p99-ms", kind: atMost, num: metric(loadgenBench, "p99-ms"), limit: 500,
		minCPUs: 4, why: "service latency regressed"},
	{name: "loadgen-error-rate", kind: atMost, num: metric(loadgenBench, "error-rate"), limit: 0.01,
		why: "service requests are failing"},

	{name: "engine-vs-serial", kind: regress, num: ns("ZeroShotEngine"), den: ns("ZeroShotSerial"), limit: 1.20,
		why: "the engine lost ground on the serial loop it replaced"},
	{name: "allocs", kind: regress, num: allocs(eachBaselineBench), limit: 1.15,
		why: "allocation counts are deterministic, so this is real growth"},
}

// fewRecords skips a row when either fixture replays fewer than least
// records: Open's fixed costs (file opens, goroutine spawn) then drown
// the scan cost and the ratio measures noise.
func fewRecords(least float64, benches ...string) skipRule {
	return func(run map[string]BenchResult) string {
		for _, name := range benches {
			if b, ok := run[name]; ok && b.Metrics["records-replayed"] < least {
				return fmt.Sprintf("%s replays %.0f records (< %.0f)", name, b.Metrics["records-replayed"], least)
			}
		}
		return ""
	}
}

// Result is one evaluated gate row as the artifact records it.
type Result struct {
	Gate    string  `json:"gate"`
	Value   float64 `json:"value"`
	Limit   float64 `json:"limit"`
	Skipped string  `json:"skipped,omitempty"`
	Failed  string  `json:"failed,omitempty"`
}

// expand returns the rows to evaluate: the benchmark rows when a
// baseline is given, with the per-benchmark rows expanded from it, and
// the loadgen rows when a report is given.
func expand(table []gate, baseline map[string]BenchResult, withBaseline, withLoadgen bool) []gate {
	var names []string
	for name, b := range baseline {
		if b.AllocsPerOp > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []gate
	for _, g := range table {
		switch {
		case g.num.bench == loadgenBench:
			if withLoadgen {
				rows = append(rows, g)
			}
		case !withBaseline: // benchmark rows run only against a baseline
		case g.num.bench == eachBaselineBench:
			for _, name := range names {
				row := g
				row.name, row.num.bench = g.name+":"+name, name
				rows = append(rows, row)
			}
		default:
			rows = append(rows, g)
		}
	}
	return rows
}

// eval evaluates the row against a run (and, for regress rows, the
// baseline) on a machine with cpus CPUs.
func (g gate) eval(run, baseline map[string]BenchResult, cpus int) Result {
	r := Result{Gate: g.name, Limit: g.limit}
	if cpus < g.minCPUs {
		r.Skipped = fmt.Sprintf("%d CPUs (< %d)", cpus, g.minCPUs)
	} else if g.skip != nil {
		r.Skipped = g.skip(run)
	}
	fail := func(msg string) Result {
		if r.Skipped == "" {
			r.Failed = msg
		}
		return r
	}
	v, err := g.value(run)
	if err != nil {
		return fail(err.Error())
	}
	r.Value = v
	if g.num.unit == "allocs/op" && v == 0 {
		r.Skipped = g.num.bench + " recorded no allocs/op (run without -benchmem)"
	}
	if g.kind == regress {
		base, err := g.value(baseline)
		if err != nil {
			return fail("baseline: " + err.Error())
		}
		r.Limit = base * g.limit
	}
	if g.kind == atLeast && v < r.Limit || g.kind != atLeast && v > r.Limit {
		return fail(fmt.Sprintf("%s is past the %s limit: %s", num(v), num(r.Limit), g.why))
	}
	return r
}

func (g gate) value(run map[string]BenchResult) (float64, error) {
	v, ok := g.num.of(run)
	if !ok {
		return 0, fmt.Errorf("%s not recorded", g.num)
	}
	if g.den == (measure{}) {
		return v, nil
	}
	d, ok := g.den.of(run)
	if !ok {
		return 0, fmt.Errorf("%s not recorded", g.den)
	}
	return v / d, nil
}

// num prints counts and nanoseconds whole and small ratios to four
// significant digits.
func num(v float64) string {
	if v >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// BenchResult is one benchmark's measurements. When a benchmark runs
// at several -cpu values, the headline fields hold the last line
// parsed (the highest requested GOMAXPROCS, matching go test's output
// order) and ByCPU records ns/op per GOMAXPROCS.
type BenchResult struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	ByCPU       map[string]float64 `json:"ns_per_op_by_cpu,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the BENCH_<sha>.json schema; ci/bench-baseline.json uses
// the same shape.
type Artifact struct {
	Sha        string                 `json:"sha"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	Gates      []Result               `json:"gates,omitempty"`
	Loadgen    *loadgen.Report        `json:"loadgen,omitempty"` // the -loadgen report, verbatim
}

// benchLine matches e.g.
//
//	BenchmarkZeroShotSerial-8  1  537016704 ns/op  128 B/op  7 allocs/op  0.483 gpt4-unit-test
//
// The -8 suffix is GOMAXPROCS (absent when 1); under -cpu 1,4 the same
// benchmark emits one line per value, folded into one BenchResult.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func parseBench(r io.Reader) (map[string]BenchResult, error) {
	out := map[string]BenchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			continue
		}
		res := BenchResult{Iterations: iters, NsPerOp: ns}
		// The remainder alternates "value unit" pairs: -benchmem's
		// B/op and allocs/op columns plus any ReportMetric values.
		fields := strings.Fields(m[5])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		cpu := m[2]
		if cpu == "" {
			cpu = "1"
		}
		// Later lines for the same name (higher -cpu values) take the
		// headline fields; ByCPU accumulates across them.
		res.ByCPU = out[m[1]].ByCPU
		if res.ByCPU == nil {
			res.ByCPU = map[string]float64{}
		}
		res.ByCPU[cpu] = ns
		out[m[1]] = res
	}
	return out, sc.Err()
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "write the JSON artifact here")
	sha := flag.String("sha", "", "commit sha recorded in the artifact")
	baseline := flag.String("baseline", "", "checked-in baseline artifact; enables the benchmark gates")
	lg := flag.String("loadgen", "", "cloudeval loadgen report to fold into the artifact; enables the loadgen gates")
	flag.Parse()
	if err := run(*in, *out, *sha, *baseline, *lg, runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// run parses the bench output, evaluates the gates on a machine with
// cpus CPUs, writes the artifact and only then returns the verdict: a
// missing or corrupt baseline or loadgen report, or any failed row. CI
// uploads the artifact with if: always(), because failed runs are when
// the measurements matter.
func run(in, out, sha, baselinePath, loadgenPath string, cpus int) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	benchmarks, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}
	art := Artifact{Sha: sha, Benchmarks: benchmarks}

	var baseline Artifact
	var inputErrs []string
	withBaseline := baselinePath != ""
	if withBaseline {
		if err := readJSON(baselinePath, &baseline); err != nil {
			inputErrs = append(inputErrs, "baseline: "+err.Error())
			withBaseline = false
		}
	}
	measured := make(map[string]BenchResult, len(benchmarks)+1)
	for name, b := range benchmarks {
		measured[name] = b
	}
	if loadgenPath != "" {
		var rep loadgen.Report
		if err := readJSON(loadgenPath, &rep); err != nil {
			inputErrs = append(inputErrs, "loadgen report: "+err.Error())
		} else if rep.Requests <= 0 {
			inputErrs = append(inputErrs, "loadgen report "+loadgenPath+" records no requests")
		} else {
			art.Loadgen = &rep
			measured[loadgenBench] = BenchResult{Iterations: int64(rep.Requests), Metrics: map[string]float64{
				"p99-ms": rep.LatencyMs.P99, "error-rate": rep.ErrorRate,
			}}
		}
	}
	for _, g := range expand(gates, baseline.Benchmarks, withBaseline, art.Loadgen != nil) {
		art.Gates = append(art.Gates, g.eval(measured, baseline.Benchmarks, cpus))
	}

	if out != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", out, len(benchmarks))
	}
	return verdict(art, inputErrs)
}

// verdict prints every evaluated row and fails with every input error
// and failed row. A failed loadgen row also names the report's error
// classes, so the CI log says what broke.
func verdict(art Artifact, inputErrs []string) error {
	failures := inputErrs
	lgFailed := false
	for _, r := range art.Gates {
		switch {
		case r.Skipped != "":
			fmt.Printf("benchguard: skip %s: %s\n", r.Gate, r.Skipped)
		case r.Failed != "":
			fmt.Printf("benchguard: FAIL %s: %s\n", r.Gate, r.Failed)
			failures = append(failures, r.Gate+": "+r.Failed)
			lgFailed = lgFailed || strings.HasPrefix(r.Gate, "loadgen-")
		default:
			fmt.Printf("benchguard: ok   %s %s (limit %s)\n", r.Gate, num(r.Value), num(r.Limit))
		}
	}
	if lgFailed {
		var classes []string
		for class, n := range art.Loadgen.Errors {
			classes = append(classes, fmt.Sprintf("%s=%d", class, n))
		}
		sort.Strings(classes)
		failures = append(failures, fmt.Sprintf("loadgen: p50 %.2fms, %.1f req/s, errors %s",
			art.Loadgen.LatencyMs.P50, art.Loadgen.ThroughputQPS, strings.Join(classes, " ")))
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d check(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
