package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// workloadNames lists the workloads; a traced run measures them in this
// order after the named one.
var workloadNames = []string{"suite", "replay", "service"}

// passSeconds is about how long one pass of each workload takes on a
// 2-CPU host (go1.24.0). A timed run makes round(--seconds/passSeconds)
// passes, at least one: the count is fixed by the flag, never by how fast
// an earlier pass happened to run.
var passSeconds = map[string]float64{"suite": 35, "replay": 1.7, "service": 4.8}

// sizes fixes how much work each part of the benchmark does. fullSizes is
// what the benchmark measures; the tests shrink it.
type sizes struct {
	setupReps map[string]int // set-ups per timed run of each workload; setup_s is their median

	suite core.Config // the suite's config; Seed becomes the workload seed

	replayK     int // the replay problem has n = 4^replayK blocks
	replayBoxes int // i.i.d. boxes drawn per set-up; replays cycle through them

	svcSeeds    int // seeds per experiment in the interactive key space
	svcWarmup   int // requests in each set-up's warm-up pass
	svcRequests int // interactive requests per pass
	svcProbe    int // repetitions of the in-process hit probes
	svcJournal  int // appends of the journal probe

	probeK int // the layer probes use n = 4^probeK blocks
}

// fullSizes are the benchmark's sizes. The suite and replay sizes define
// those workloads; the service sizes make a pass last seconds, so that its
// percentiles rest on thousands of requests.
func fullSizes() sizes {
	return sizes{
		// The replay's set-up takes about 50 ms, so that the garbage
		// collector or a page fault can double one; its median needs more.
		setupReps:   map[string]int{"suite": 3, "replay": 15, "service": 3},
		suite:       core.DefaultConfig(),
		replayK:     7,
		replayBoxes: 1 << 21,
		svcSeeds:    32,
		svcWarmup:   300,
		svcRequests: 1000,
		svcProbe:    2000,
		svcJournal:  200,
		probeK:      7,
	}
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload's inputs. A timed run calls it several
	// times; the passes use what the last call left.
	setup(tr *tracer) error
	// pass runs one fixed unit of the workload's work; its spans hang
	// from the span with ID parent.
	pass(tr *tracer, parent int) (passResult, error)
	// check verifies every output the passes produced.
	check() error
	// layers reports the per-layer metrics of the last pass, which ran
	// traced, and of the workload's own layer probes.
	layers(tr *tracer) (map[string]float64, error)
	// close releases what setup acquired.
	close() error
}

// passResult is what one pass did.
type passResult struct {
	wall    float64   // seconds of the pass's timed work
	ops     []float64 // seconds per operation: a table, a replay or a request
	names   []string  // names[i] names ops[i] when every pass repeats the same operations; nil for requests
	opPhase float64   // seconds the operations took together
	extra   int64     // operations beyond ops: the service's batch cells
	failed  int64     // operations that failed
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "suite":
		return newSuiteBench(e), nil
	case "replay":
		return newReplayBench(e), nil
	case "service":
		return newServiceBench(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// settle collects garbage, so that a set-up, a pass or a replay starts
// from the same heap whatever ran before it.
func settle() { runtime.GC() }

// timedRun measures the end-to-end metrics with tracing off: setupReps
// set-ups, then a fixed number of passes for the given seconds. Every time
// it reports is a median over set-ups or passes, so that a stretch of a
// run slowed by the rest of the host moves it less.
func timedRun(name string, e env, seconds float64) (rep report, err error) {
	rep.host = newHost(name, e.seed, 0)
	w, err := newWorkload(name, e)
	if err != nil {
		return rep, err
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	var setups []float64
	for i := 0; i < e.sz.setupReps[name]; i++ {
		settle()
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var passes []passResult
	nops := 0
	for i := max(1, int(math.Round(seconds/passSeconds[name]))); i > 0; i-- {
		settle()
		r, err := w.pass(nil, 0)
		if err != nil {
			return rep, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		passes = append(passes, r)
		nops += len(r.ops)
		rep.Attempted += int64(len(r.ops)) + r.extra
		rep.Failed += r.failed
	}
	rep.checkErr = w.check()
	rep.Correct = rep.checkErr == nil
	rep.host.Samples = map[string]int{"setups": len(setups), "passes": len(passes), "ops": nops}
	vals := passMetrics(passes)
	vals["setup_s"] = median(setups)
	rep.Metrics, err = withUnits(vals, e2eUnits)
	return rep, err
}

// passMetrics returns the medians over passes of the pass time and of the
// operation rate, and the operation time percentiles. Named operations —
// a table, a replay — recur in every pass: each counts once in the
// percentiles, with its median time over the passes. Unnamed ones — the
// service's requests — are a sample per pass: the percentile is taken in
// each pass, and its median over the passes is reported. Percentiles are
// Harrell–Davis estimates.
func passMetrics(passes []passResult) map[string]float64 {
	var walls, rates, p50s, p99s []float64
	named := map[string][]float64{}
	for _, r := range passes {
		walls = append(walls, r.wall)
		rates = append(rates, float64(len(r.ops))/r.opPhase)
		if r.names == nil {
			p50s = append(p50s, hdQuantile(r.ops, 0.50))
			p99s = append(p99s, hdQuantile(r.ops, 0.99))
		}
		for i, n := range r.names {
			named[n] = append(named[n], r.ops[i])
		}
	}
	if len(named) > 0 {
		var ops []float64
		for _, times := range named {
			ops = append(ops, median(times)) //lint:ignore maporder hdQuantile sorts ops
		}
		p50s, p99s = []float64{hdQuantile(ops, 0.50)}, []float64{hdQuantile(ops, 0.99)}
	}
	return map[string]float64{
		"wall_s":    median(walls),
		"ops_per_s": median(rates),
		"op_p50_ms": median(p50s) * 1e3,
		"op_p99_ms": median(p99s) * 1e3,
	}
}

// tracedRun runs every workload once with spans recorded, then the layer
// probes, and reports the per-layer metrics. The named workload first runs
// one untraced pass, so that its two pass times give the tracing overhead,
// and the process's peak resident memory is read once it has finished.
func tracedRun(name string, e env, stderr io.Writer) (rep report, err error) {
	rep.host = newHost(name, e.seed, 1)
	tr := newTracer()
	vals := map[string]float64{}
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	var checkErrs []error
	for i, wn := range order {
		tr.setRun(fmt.Sprintf("%s/seed=%d", wn, e.seed))
		lv, r, checkErr, err := tracedWorkload(wn, e, tr, i == 0)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", wn, err)
		}
		rep.Attempted += int64(len(r.ops)) + r.extra
		rep.Failed += r.failed
		if checkErr != nil {
			checkErrs = append(checkErrs, fmt.Errorf("%s: %w", wn, checkErr))
		}
		maps.Copy(vals, lv)
		if i == 0 {
			if vals["bench.peak_rss_mb"], err = peakRSSMiB(); err != nil {
				return rep, err
			}
		}
	}
	tr.setRun("probes")
	pv, err := probeLayers(tr, e.sz)
	if err != nil {
		return rep, err
	}
	maps.Copy(vals, pv)
	rep.checkErr = errors.Join(checkErrs...)
	rep.Correct = rep.checkErr == nil
	rep.host.Samples = map[string]int{"spans": tr.len()}
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
	if err := tr.write(path, rep.host); err != nil {
		return rep, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	tr.printSelfTimes(stderr)
	rep.Metrics, err = withUnits(vals, layerUnits)
	return rep, err
}

// tracedWorkload sets up one workload and runs one traced pass. With
// overhead set it first runs the same pass untraced, and reports the
// difference between the two pass times as bench.trace_overhead_s.
func tracedWorkload(name string, e env, tr *tracer, overhead bool) (vals map[string]float64, r passResult, checkErr, err error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, r, nil, err
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	settle()
	if err := w.setup(tr); err != nil {
		return nil, r, nil, fmt.Errorf("set-up: %w", err)
	}
	var untraced float64
	if overhead {
		settle()
		if r, err = w.pass(nil, 0); err != nil {
			return nil, r, nil, err
		}
		untraced = r.wall
	}
	settle()
	sp := tr.begin(0, name+".pass")
	tp, err := w.pass(tr, sp.id)
	sp.end()
	if err != nil {
		return nil, r, nil, err
	}
	r.ops = append(r.ops, tp.ops...)
	r.extra += tp.extra
	r.failed += tp.failed
	if vals, err = w.layers(tr); err != nil {
		return nil, r, nil, err
	}
	if overhead {
		vals["bench.trace_overhead_s"] = tp.wall - untraced
	}
	return vals, r, w.check(), nil
}
