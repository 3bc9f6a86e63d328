// Command perfbench is the repository's benchmark: three fixed-work
// workloads (fleet-steady, fleet-churn, live) that drive the fleet control
// plane and the live data plane through their public calls, check that the
// outputs are correct, and print one JSON result line.
//
//	bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, and the spans are
// written to .bench_build/spans/. See perfbench/README.md for the metric,
// layer and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workDir is where a run keeps its registry, checkpoints and span dumps,
// relative to the checkout the benchmark runs in.
const workDir = ".bench_build"

// setups is how many times a run builds its system anew; setup_s is
// the median.
const setups = 3

// params are one run's command-line inputs.
type params struct {
	seed    uint64
	seconds int
	trace   bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: its end-to-end and per-layer
// metrics, the operation ledger, and the correctness verdict.
type outcome struct {
	endToEnd  map[string]metric
	perLayer  map[string]metric
	attempted int64
	failed    int64
	// problems lists every failed correctness check; empty means correct.
	problems []string
	// digest identifies the program's output; equal seeds give equal digests.
	digest string
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// endToEndUnits and perLayerUnits list every reported metric with its unit.
// Every workload reports all of them; a per-layer metric of a layer the
// workload does not run reads 0.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"latency_ms_p50":   "ms",
	"throughput_per_s": "1/s",
	"cpu_us_per_unit":  "us",
	"heap_mb":          "MB",
}

var perLayerUnits = map[string]string{
	"fleet.round_growth":         "ratio",
	"fleet.shard_skew":           "ratio",
	"fleet.edge_share":           "ratio",
	"fleet.admit_train_ms":       "ms",
	"fleet.admit_warm_ms":        "ms",
	"fleet.checkpoint_ms":        "ms",
	"fleet.admin_ms_p50":         "ms",
	"fleet.checkpoints":          "count",
	"fleet.warm_starts":          "count",
	"core.step_us":               "us",
	"core.learn_us":              "us",
	"core.q_states":              "count",
	"core.retrains":              "count",
	"core.policy_switches":       "count",
	"system.apply_us":            "us",
	"system.measure_us":          "us",
	"parallel.queue_wait_ms":     "ms",
	"parallel.tasks":             "count",
	"workload.phase_transitions": "count",
	"capacity.scale_events":      "count",
	"telemetry.scrape_ms":        "ms",
	"telemetry.scrape_bytes":     "bytes",
	"httpd.server_ms_p50":        "ms",
	"httpd.reconfigure_ms":       "ms",
	"httpd.rejected":             "count",
	"loadgen.overhead_ms":        "ms",
	"loadgen.completed_ratio":    "ratio",
	"loadgen.shed":               "count",
	"loadgen.errors":             "count",
	"trace.overhead":             "ratio",
}

// perLayerDefaults returns every per-layer metric at 0, for a workload to
// fill in the layers it runs.
func perLayerDefaults() map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{0, unit}
	}
	return out
}

// checkMetrics reports a metric set that is not exactly the table's.
func checkMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(got), len(want))
	}
	return nil
}

var workloads = map[string]func(params) (*outcome, error){
	"fleet-steady": runFleetSteady,
	"fleet-churn":  runFleetChurn,
	"live":         runLive,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-steady, fleet-churn or live")
	seed := fs.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Int("seconds", 10, "measured seconds the fixed work is sized for on a 2-vCPU box")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload fleet-steady|fleet-churn|live, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}

	before := referenceLoop()
	out, err := w(p)
	after := referenceLoop()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The reference loop tells machine drift from a program change. It is
	// printed next to the metrics and never used to scale them.
	fmt.Fprintf(stdout, "drift: reference loop %.4f s before, %.4f s after the run\n", before, after)
	fmt.Fprintf(stdout, "digest: %s\n", out.digest)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(stdout, "INCORRECT:", p)
	}
	metrics, units := out.endToEnd, endToEndUnits
	if p.trace {
		metrics, units = out.perLayer, perLayerUnits
	}
	if err := checkMetrics(metrics, units); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

var referenceSink uint64

// referenceLoop times a fixed integer loop: the machine-drift diagnostic.
func referenceLoop() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 200_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	referenceSink = x
	return time.Since(start).Seconds()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the median of xs (0 for an empty slice) without
// modifying xs.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
