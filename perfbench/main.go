// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload — suite, replay or service — checks its outputs, and
// prints every metric by name with its unit. The last two lines of
// standard output are the host block and the result, a JSON object
// {correct, attempted, failed, metrics}. Run it from the checkout root:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs every workload once with in-memory spans around its calls into each
// layer, writes the spans to a file, and reports the per-layer metrics and
// the tracing overhead of the named workload. README.md describes the
// workloads and what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/paging"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload is built from.
type env struct {
	seed uint64 // every input derives from it
	sz   sizes
	root string // checkout root, holding the reference tables
	out  string // directory for span files and temporary job journals
}

// run parses the flags, runs the workload and prints the result. It
// returns 1 when the run fails or a correctness check does, and 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", core.DefaultConfig().Seed, "workload seed")
	seconds := fs.Float64("seconds", 12, "length of the timed phase; at least one pass runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	root := fs.String("root", ".", "checkout root, holding "+goldenFile)
	out := fs.String("out", ".bench_build", "directory for span files and temporary job journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload %s [--seed N] [--seconds S] [--trace 0|1]\n",
			strings.Join(workloadNames, "|"))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Worker bound 1 in every run: at bound 2 the suite's median moved by
	// 8% between two sets of runs of identical code on a 2-CPU host.
	// Parallel scaling is a traced-run metric instead.
	engine.SetSharedWorkers(1)
	e := env{seed: *seed, sz: fullSizes(), root: *root, out: *out}
	var rep report
	var err error
	if *traced == 1 {
		rep, err = tracedRun(*name, e, stderr)
	} else {
		rep, err = timedRun(*name, e, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return rep.print(stdout, stderr)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome; its exported fields are the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host     host
	checkErr error // why Correct is false
}

// host is the host block every run prints before its result, so that two
// runs can be checked for comparability.
type host struct {
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Trace         int            `json:"trace"`
	HostCPUs      int            `json:"host_cpus"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	EngineWorkers int            `json:"engine_workers"`
	GoVersion     string         `json:"go_version"`
	Samples       map[string]int `json:"samples"`
}

func newHost(workload string, seed uint64, trace int) host {
	return host{
		Workload:      workload,
		Seed:          seed,
		Trace:         trace,
		HostCPUs:      runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		EngineWorkers: engine.Shared().Workers(),
		GoVersion:     runtime.Version(),
		Samples:       map[string]int{},
	}
}

// print writes one line per metric to stderr, then the host block and the
// result line to stdout, and returns the exit code.
func (r report) print(stdout, stderr io.Writer) int {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n) //lint:ignore maporder names is sorted immediately below
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "%-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.checkErr != nil {
		fmt.Fprintln(stderr, "perfbench: correctness check failed:", r.checkErr)
	}
	hostLine, err := json.Marshal(map[string]host{"host": r.host})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hostLine, line)
	if !r.Correct {
		return 1
	}
	return 0
}

// e2eUnits are the end-to-end metrics every timed run reports.
var e2eUnits = map[string]string{
	"setup_s":   "s",
	"wall_s":    "s",
	"op_p50_ms": "ms",
	"op_p99_ms": "ms",
	"ops_per_s": "1/s",
}

// layerUnits are the per-layer metrics every traced run reports.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"core.format_s":                     "s",
		"engine.cells":                      "count",
		"engine.busy_s":                     "s",
		"engine.utilisation":                "ratio",
		"engine.map_ns_per_cell":            "ns",
		"engine.suite_speedup_w2":           "ratio",
		"regular.emit_ns_per_ref":           "ns",
		"regular.exec_ns_per_box":           "ns",
		"profile.worstcase_build_s":         "s",
		"profile.iid_draw_s":                "s",
		"smoothing.shuffle_ns_per_box":      "ns",
		"trace.materialize_ns_per_ref":      "ns",
		"adaptivity.refs_per_s":             "1/s",
		"paging.opt_ns_per_access":          "ns",
		"paging.square_ns_per_access":       "ns",
		"paging.square_shard_speedup_w2":    "ratio",
		"paging.square_wc_shard_speedup_w2": "ratio",
		"service.hit_ratio":                 "ratio",
		"service.evictions":                 "count",
		"service.coalesced":                 "count",
		"service.hit_p50_us":                "us",
		"service.handler_hit_us":            "us",
		"service.http_overhead_us":          "us",
		"service.miss_p50_ms":               "ms",
		"service.miss_p99_ms":               "ms",
		"service.run_s_total":               "s",
		"service.shard_speedup_16v1":        "ratio",
		"jobs.journal_append_us":            "us",
		"jobs.attempts_per_cell":            "count",
		"jobs.cells_per_s":                  "1/s",
		"bench.trace_overhead_s":            "s",
		"bench.peak_rss_mb":                 "MiB",
	}
	for _, e := range core.Experiments() {
		u["core.exp_s."+e.ID] = "s"
	}
	for _, n := range paging.ReplayNames() {
		u["adaptivity.replay_s."+n] = "s"
	}
	for _, n := range paging.PolicyNames() {
		u["paging.kernel_ns_per_access."+n] = "ns"
		u["paging.stream_ns_per_access."+n] = "ns"
		u["paging.stream_overhead_x."+n] = "ratio"
	}
	return u
}()

// withUnits attaches units to measured values. Every metric in units must
// have been measured, as a finite number, and nothing else.
func withUnits(vals map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	for name := range vals {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s has no unit", name)
		}
	}
	return out, nil
}
