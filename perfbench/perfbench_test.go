package main

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adaptivity"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
)

// tinySizes shrinks every workload to smoke-test size.
func tinySizes() sizes {
	return sizes{
		setupReps:   map[string]int{"suite": 1, "replay": 1, "service": 1},
		suite:       core.Config{Trials: 2, MaxK: 4},
		replayK:     4,
		replayBoxes: 1 << 10,
		svcSeeds:    2,
		svcWarmup:   20,
		svcRequests: 40,
		svcProbe:    20,
		svcJournal:  5,
		probeK:      4,
	}
}

func tinyEnv(t *testing.T) env {
	t.Helper()
	engine.SetSharedWorkers(1)
	return env{seed: 7, sz: tinySizes(), root: "..", out: t.TempDir()}
}

// TestTimedRunEachWorkload is the smoke run: every workload at tiny size
// passes its correctness gate and reports every end-to-end metric.
func TestTimedRunEachWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := timedRun(name, tinyEnv(t), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.checkErr)
			}
			for m, unit := range e2eUnits {
				if got := rep.Metrics[m]; got.Unit != unit || !(got.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m, got, unit)
				}
			}
		})
	}
}

// TestTracedRunReportsLayersAndSpans checks that a traced run reports every
// per-layer metric and writes a well-formed span file.
func TestTracedRunReportsLayersAndSpans(t *testing.T) {
	e := tinyEnv(t)
	rep, err := tracedRun("replay", e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatal(rep.checkErr)
	}
	if len(rep.Metrics) != len(layerUnits) {
		t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(layerUnits))
	}
	data, err := os.ReadFile(filepath.Join(e.out, "spans-replay-seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Host  host         `json:"host"`
		Spans []spanRecord `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	runs := map[string]bool{}
	for _, s := range f.Spans {
		if s.End < s.Start || s.Parent >= s.ID || s.Run == "" {
			t.Fatalf("malformed span %+v", s)
		}
		runs[s.Run] = true
	}
	if len(runs) != len(workloadNames)+1 {
		t.Errorf("spans carry runs %v, want one per workload plus the probes", runs)
	}
}

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metrics the code reports in step.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the code runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		what   string
		listed []entry
		want   map[string]string
	}{
		{"end_to_end", spec.EndToEnd, e2eUnits},
		{"per_layer", spec.PerLayer, layerUnits},
	} {
		got := map[string]string{}
		for _, e := range c.listed {
			got[e.Name] = e.Unit
		}
		if len(got) != len(c.listed) || !maps.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json %s lists %v, the code reports %v", c.what, got, c.want)
		}
	}
}

// cloneTables deep-copies tables so that a test can corrupt one cell.
func cloneTables(tables []*core.Table) []*core.Table {
	out := make([]*core.Table, len(tables))
	for i, t := range tables {
		c := *t
		c.Rows = make([][]string, len(t.Rows))
		for r, row := range t.Rows {
			c.Rows[r] = slices.Clone(row)
		}
		out[i] = &c
	}
	return out
}

func TestCheckSuiteRejectsCorruptedTables(t *testing.T) {
	engine.SetSharedWorkers(1)
	tables, err := core.RunAll(core.Config{Seed: 7, Trials: 2, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	golden := []byte(formatText(tables))
	if err := checkSuite(tables, golden); err != nil {
		t.Fatalf("clean tables rejected: %v", err)
	}
	for _, c := range []struct {
		id     string
		col    int
		golden []byte
	}{
		{"E3", 3, golden}, // no invariant covers E3; the reference text does
		{"E1", 5, nil},
		{"E9", 4, nil},
		{"E10", 1, nil},
		{"E12", 3, nil},
	} {
		bad := cloneTables(tables)
		corrupted := false
		for _, tb := range bad {
			for _, row := range tb.Rows {
				if tb.ID != c.id || (c.id == "E12" && row[0] != paging.SquareReplayName) {
					continue
				}
				row[c.col] = "9999"
				corrupted = true
				break
			}
		}
		if !corrupted {
			t.Fatalf("%s: no row to corrupt", c.id)
		}
		if err := checkSuite(bad, c.golden); err == nil {
			t.Errorf("%s column %d corrupted, but the tables were accepted", c.id, c.col)
		}
	}
}

func TestCheckLedgerRejectsBrokenLedger(t *testing.T) {
	balanced := func() serviceMetrics {
		var m serviceMetrics
		m.Cache.Hits, m.Cache.Misses, m.Cache.Coalesced = 70, 20, 5
		m.Service.Sheds, m.Service.Requests = 5, 100
		m.Jobs = jobs.Ledger{
			JobsSubmitted: 2, JobsCompleted: 1, JobsPartial: 1,
			CellsSubmitted: 10, CellsCompleted: 9, CellsPoisoned: 1,
		}
		return m
	}
	if err := checkLedger(balanced()); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*serviceMetrics){
		"request in no outcome":  func(m *serviceMetrics) { m.Service.Requests++ },
		"outcome without a call": func(m *serviceMetrics) { m.Cache.Hits++ },
		"cell in no state":       func(m *serviceMetrics) { m.Jobs.CellsCompleted-- },
		"cell counted twice":     func(m *serviceMetrics) { m.Jobs.CellsPoisoned++ },
		"cell still in flight":   func(m *serviceMetrics) { m.Jobs.CellsInFlight++ },
		"job in no state":        func(m *serviceMetrics) { m.Jobs.JobsPartial-- },
	} {
		m := balanced()
		breakIt(&m)
		if err := checkLedger(m); err == nil {
			t.Errorf("%s: broken ledger accepted", name)
		}
	}
}

func TestCheckReplaysRejectsWrongProgress(t *testing.T) {
	leaves := int64(regular.MMScanSpec.LeafCount(profile.Pow(4, 3)))
	complete := func() map[string]adaptivity.RunResult {
		res := map[string]adaptivity.RunResult{}
		for _, name := range paging.ReplayNames() {
			res[name] = adaptivity.RunResult{Progress: leaves}
		}
		return res
	}
	if err := checkReplays(complete(), leaves); err != nil {
		t.Fatalf("complete replays rejected: %v", err)
	}
	short := complete()
	short["arc"] = adaptivity.RunResult{Progress: leaves - 1}
	if checkReplays(short, leaves) == nil {
		t.Error("a replay one leaf short was accepted")
	}
	missing := complete()
	delete(missing, paging.OPTReplayName)
	if checkReplays(missing, leaves) == nil {
		t.Error("a missing replay was accepted")
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},
		{0.5, 7, 7, 0.5},
		{0.2, 2, 1, 0.04},
		{0.99, 991, 10, 0.4573005921749}, // P(Binomial(1000, 0.99) ≥ 991)
	} {
		if got := betaInc(c.x, c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%g(%g, %g) = %.13g, want %.13g", c.x, c.a, c.b, got, c.want)
		}
	}
	if got := hdQuantile([]float64{3, 1, 2}, 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("median of 1, 2, 3 = %g, want 2", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := hdQuantile(xs, q), quantile(xs, q); math.Abs(got-want) > 1 {
			t.Errorf("q=%g over 0..999: %g, want about %g", q, got, want)
		}
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 8, End: 12}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self["parent"]; got != 4 {
		t.Errorf("parent self time %v, want 4 (10 minus the union [1,5] and [8,10])", got)
	}
	if got := self["child"]; got != 9 {
		t.Errorf("child self time %v, want 9", got)
	}
}
