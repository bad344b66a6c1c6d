// Command perfbench is the repository benchmark. It runs one named
// workload against the code in this checkout, checks every output, and
// prints its metrics by name and unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 50 --trace 0
//
// Workloads:
//
//	serve-hot    sdemd's serve.Server on loopback, 8 cached 30-task sets:
//	             decode, cache key, lookup and encode carry the time
//	stream-soak  online.ScheduleStream over a sporadic stream with fault
//	             injection, in process: the streaming engine alone
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// README.md gives each workload's reasoning, each metric's definition
// and the layer-to-end-to-end predictions. The process exits non-zero
// if any operation failed or any output check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// Seeds: defaultSeed is what an unseeded run uses; heldOutSeed is kept
// out of tuning so a claimed gain can be re-checked on inputs no one
// looked at while making the change.
const (
	defaultSeed = 1
	heldOutSeed = 20151
)

// endToEnd and perLayer are the metrics a run prints with --trace 0
// and --trace 1, in order; BENCHMARK.json lists the same names. Every
// workload prints every metric: a layer the workload never reaches
// reads 0 on it.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MiB"},
}

var perLayer = []metric{
	{name: "serve.decode_ms", unit: "ms"},
	{name: "encode.canonical_key_us", unit: "us"},
	{name: "serve.cache_ms", unit: "ms"},
	{name: "serve.cache.hit_ratio", unit: "ratio"},
	{name: "serve.cache.lookups", unit: "count"},
	{name: "serve.encode_ms", unit: "ms"},
	{name: "serve.response_bytes", unit: "bytes"},
	{name: "serve.untracked_ms", unit: "ms"},
	{name: "serve.admission_p99_ms", unit: "ms"},
	{name: "serve.stage_sum_remainder_ratio", unit: "ratio"},
	{name: "commonrelease.solve_ms", unit: "ms"},
	{name: "commonrelease.objective_evals", unit: "count"},
	{name: "agreeable.solve_ms", unit: "ms"},
	{name: "agreeable.objective_evals", unit: "count"},
	{name: "agreeable.dp_cells", unit: "count"},
	{name: "online.schedule_ms", unit: "ms"},
	{name: "online.plans", unit: "count"},
	{name: "online.plan_reuse_ratio", unit: "ratio"},
	{name: "online.skipped_solve_ratio", unit: "ratio"},
	{name: "schedule.audit_us", unit: "us"},
	{name: "telemetry.solve_overhead_ratio", unit: "ratio"},
	{name: "sim.stream.allocs_per_arrival", unit: "count"},
	{name: "sim.stream.max_active", unit: "count"},
	{name: "sim.stream.gc_pause_ms", unit: "ms/soak"},
	{name: "online.stream.plans_per_arrival", unit: "ratio"},
	{name: "faults.stream.explained_misses", unit: "count"},
	{name: "bench.latency_p90_ms", unit: "ms"},
	{name: "bench.latency_p99_ms", unit: "ms"},
	{name: "bench.latency_due_p50_ms", unit: "ms"},
	{name: "bench.latency_due_p90_ms", unit: "ms"},
	{name: "bench.gen_lag_p99_ms", unit: "ms"},
	{name: "bench.gen_lag_max_ms", unit: "ms"},
	{name: "bench.trace_overhead_ratio", unit: "ratio"},
}

// emit appends the metrics of list in order, taking values from vals.
func (o *outcome) emit(list []metric, vals map[string]float64) {
	for _, m := range list {
		o.metrics = append(o.metrics, metric{m.name, vals[m.name], m.unit})
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
}

// metric is one named figure of the result.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	probs             problems
	metrics           []metric
	// lines are the human-readable report printed before the result.
	lines []string
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-hot or stream-soak")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed; the same seed gives the same inputs (held-out seed: %d)", heldOutSeed))
	flag.IntVar(&o.seconds, "seconds", 50, "seconds of measured load")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory the traced run writes its span file to (empty: none)")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments (want --workload W --seed N --seconds S>=2 --trace 0|1)")
		os.Exit(2)
	}
	o.traced = trace == 1

	var out *outcome
	var err error
	switch o.workload {
	case "serve-hot":
		out, err = runServe(o)
	case "stream-soak":
		out, err = runSoak(o)
	default:
		err = fmt.Errorf("unknown workload %q (want serve-hot or stream-soak)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct := out.probs.n == 0 && out.failed == 0
	if err := report(os.Stdout, o, out, correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		for _, p := range out.probs.first {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d failed of %d attempted, %d output checks failed\n",
			out.failed, out.attempted, out.probs.n)
		os.Exit(1)
	}
}

// report prints the readable report and, last, the JSON result line.
func report(w io.Writer, o options, out *outcome, correct bool) error {
	mode := "end-to-end"
	if o.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d %s, %s, GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, mode, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, l := range out.lines {
		fmt.Fprintln(w, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, out.attempted, out.failed, map[string]value{}}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// medianSetup runs build n times and returns the median duration in
// seconds and the last result; earlier results are torn down.
func medianSetup[T any](n int, build func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(last); err != nil {
				var zero T
				return zero, 0, err
			}
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}
