// e2ebench is the repository's end-to-end benchmark. It drives the two
// real surfaces of the planner and prints one JSON result line:
//
//   - serve-herd runs a laer-serve process built from the tree under test
//     and drives it over HTTP from this one process, with at most two
//     connections and two sending goroutines;
//   - sim-online calls laermoe.SimulateOnline in process, back to back.
//
// BENCHMARK.json lists those two workloads. A third, serve-drift (dense
// drifting observes at a paced rate), runs the same way on request but is
// not listed: on a shared two-vCPU host its tail spread between runs at
// or past the benchmark's bound.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload serve-herd --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run re-drives the same inputs stage by stage and the
// result carries the per-layer metrics. README.md documents every metric,
// which layer each workload loads, and what each per-layer metric is
// predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names the unit of every metric the benchmark can print; a value
// set under a name missing here is a programming error caught by put.
var units = map[string]string{
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"throughput_per_s": "1/s",
	"cpu_ms_per_op":    "ms",
	"setup_s":          "s",
	"rss_mb":           "MiB",
	"recovery_s":       "s",
	"imbalance":        "ratio",
	"sim_step_ms":      "ms",

	"serve.http_ms":             "ms",
	"serve.decode_ms":           "ms",
	"serve.join_decode_ms":      "ms",
	"serve.body_kb":             "KiB",
	"trace.apply_ms":            "ms",
	"training.plan_ms":          "ms",
	"planner.incremental_share": "ratio",
	"planner.replan_share":      "ratio",
	"journal.append_ms":         "ms",
	"journal.record_kb":         "KiB",
	"journal.rewrite_ms":        "ms",
	"journal.sync_ms":           "ms",
	"serve.encode_ms":           "ms",
	"serve.residual_ms":         "ms",
	"serve.queue_ms":            "ms",
	"journal.replay_read_ms":    "ms",
	"training.setup_ms":         "ms",
	"trace.synth_ms":            "ms",
	"planner.dispatch_ms":       "ms",
	"executor.iteration_ms":     "ms",
	"training.predicted_layers": "count",
	"laermoe.residual_ms":       "ms",
}

// endToEnd and perLayer are the metric sets a --trace 0 and a --trace 1
// run print. Every workload prints the whole set; a per-layer metric whose
// layer the workload bypasses reads 0 (README.md lists which).
var endToEnd = []string{
	"latency_p50_ms", "latency_tail_ms", "throughput_per_s", "cpu_ms_per_op",
	"setup_s", "rss_mb", "recovery_s", "imbalance", "sim_step_ms",
}

var perLayer = []string{
	"serve.http_ms", "serve.decode_ms", "serve.join_decode_ms", "serve.body_kb", "trace.apply_ms",
	"training.plan_ms", "planner.incremental_share", "planner.replan_share",
	"journal.append_ms", "journal.record_kb", "journal.rewrite_ms",
	"journal.sync_ms", "serve.encode_ms", "serve.residual_ms", "serve.queue_ms",
	"journal.replay_read_ms", "training.setup_ms", "trace.synth_ms",
	"planner.dispatch_ms", "executor.iteration_ms", "training.predicted_layers",
	"laermoe.residual_ms",
}

func (r *result) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("e2ebench: metric without a unit: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-herd, serve-drift or sim-online")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; every session and call derives its own from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", ".bench_build/bin/laer-serve", "laer-serve binary built from the tree under test")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/run", "scratch directory for journals and spans")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: workload %s did not measure %s\n", o.workload, name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	var res *result
	switch o.workload {
	case "serve-herd":
		res, err = runServe(o, herdWorkload, dir)
	case "serve-drift":
		res, err = runServe(o, driftWorkload, dir)
	case "sim-online":
		res, err = runSim(o)
	default:
		return nil, fmt.Errorf("unknown --workload %q (have serve-herd, serve-drift, sim-online)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	fmt.Printf("run: %s seed %d, %.1fs wall\n", o.workload, o.seed, time.Since(start).Seconds())
	return res, nil
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// deriveSeed gives session or call i its own seed (splitmix64 of the
// benchmark seed and i), so no two sessions or calls replay one stream.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
