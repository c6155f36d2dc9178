// Command perfbench is the repository's end-to-end benchmark. Each run
// drives one workload through the exported APIs of the internal
// packages, checks the outputs against the serial reference paths, and
// prints one JSON result line. Untraced runs (--trace 0) print the
// end-to-end metrics; traced runs (--trace 1) wrap every layer boundary
// from outside and print the per-layer metrics. README.md gives each
// workload's reason and the layer-to-metric map.
//
// Campaign repetitions run in fresh child processes (the binary
// re-executes itself with -child), so every timed campaign starts with
// cold process-level caches, as `cloudeval bench` does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (result, error){
	"table4-cold":   runCampaignWorkload,
	"table4-warm":   runCampaignWorkload,
	"passk-sampled": runCampaignWorkload,
	"service-mix":   runService,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// work is a private scratch directory inside the checkout; it is
	// removed when the run ends.
	work string
}

func main() {
	workload := flag.String("workload", "", "workload name: table4-cold, table4-warm, passk-sampled or service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	child := flag.String("child", "", "internal: run one child process (cold, warm, passk, allocs)")
	path := flag.String("path", "", "internal: the child's store path")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *seed, *path, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = work
	res, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}
