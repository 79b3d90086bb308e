package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// testConfig keeps experiment tests fast; the committed EXPERIMENTS.md
// numbers use DefaultConfig.
func testConfig() Config {
	return Config{Seed: 7, Trials: 4, MaxK: 4}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Fatalf("registered %d experiments, want 20 (E1..E13, A1..A7)", len(exps))
	}
	for i, e := range exps {
		var want string
		if i < 13 {
			want = "E" + strconv.Itoa(i+1)
		} else {
			want = "A" + strconv.Itoa(i-12)
		}
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Source == "" || e.Summary == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	for _, id := range []string{"E99", "A99", "E14", "A8"} {
		_, err := Run(id, testConfig())
		if err == nil {
			t.Fatalf("%s: unknown experiment accepted", id)
		}
		if !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: error %q does not say \"unknown experiment\"", id, err)
		}
	}
}

func TestRunMalformedID(t *testing.T) {
	// Regression: these used to be Sscanf-parsed with the error ignored, so
	// "Axe" fell through as A0 and produced a confusing lookup failure.
	for _, id := range []string{"Axe", "A", "E", "e3", "A07x", "E-1", "", "all"} {
		_, err := Run(id, testConfig())
		if err == nil {
			t.Fatalf("%q: malformed experiment ID accepted", id)
		}
		if !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%q: error %q does not say \"unknown experiment\"", id, err)
		}
	}
}

func TestParseID(t *testing.T) {
	for _, tc := range []struct {
		id   string
		kind byte
		n    int
		ok   bool
	}{
		{"E1", 'E', 1, true},
		{"E11", 'E', 11, true},
		{"A7", 'A', 7, true},
		{"A0", 0, 0, false},
		{"Axe", 0, 0, false},
		{"A", 0, 0, false},
		{"B3", 0, 0, false},
		{"", 0, 0, false},
	} {
		kind, n, err := ParseID(tc.id)
		if tc.ok != (err == nil) {
			t.Errorf("ParseID(%q): err = %v, want ok = %v", tc.id, err, tc.ok)
			continue
		}
		if tc.ok && (kind != tc.kind || n != tc.n) {
			t.Errorf("ParseID(%q) = (%c, %d), want (%c, %d)", tc.id, kind, n, tc.kind, tc.n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Config)
		field  string
	}{
		{func(c *Config) { c.Trials = 0 }, "Trials"},
		{func(c *Config) { c.MaxK = 3 }, "MaxK"}, // E3's slope fit needs two sizes
		{func(c *Config) { c.MaxK = 15 }, "MaxK"},
	} {
		bad := testConfig()
		tc.mutate(&bad)
		_, err := Run("E1", bad)
		if err == nil {
			t.Fatalf("invalid %s accepted", tc.field)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%v is not a *ConfigError", err)
		}
		if ce.Field != tc.field {
			t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// smallConfig is the cheapest legal configuration — used where the suite
// runs RunAll repeatedly (determinism, JSON round-trip), including under
// the race detector in scripts/ci.sh.
func smallConfig() Config {
	return Config{Seed: 7, Trials: 2, MaxK: 4}
}

func stripMetrics(tables []*Table) []*Table {
	out := make([]*Table, len(tables))
	for i, tb := range tables {
		cp := *tb
		cp.Metrics = Metrics{}
		out[i] = &cp
	}
	return out
}

// TestRunAllDeterministicAcrossWorkers is the engine's core guarantee: the
// tables a run produces — rows, notes, formatted text — are identical
// whether one worker or many execute the cells. Only Metrics may differ.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	cfg := smallConfig()

	engine.SetSharedWorkers(1)
	serial, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetSharedWorkers(4)
	parallel, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("table count differs: %d vs %d", len(serial), len(parallel))
	}
	s, p := stripMetrics(serial), stripMetrics(parallel)
	for i := range s {
		if !reflect.DeepEqual(s[i], p[i]) {
			t.Errorf("%s: tables differ between 1 and 4 workers", serial[i].ID)
		}
		if got, want := p[i].Format(), s[i].Format(); got != want {
			t.Errorf("%s: formatted text differs between 1 and 4 workers:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", serial[i].ID, want, got)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := smallConfig()
	tb, err := Run("E1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2020, 7, 15, 12, 0, 0, 0, time.UTC)
	snap := NewSnapshot(cfg, []*Table{tb}, 3*time.Second, at)
	if snap.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version %d", snap.SchemaVersion)
	}
	if snap.GeneratedAt != "2020-07-15T12:00:00Z" {
		t.Errorf("GeneratedAt %q not the injected timestamp", snap.GeneratedAt)
	}
	if zero := NewSnapshot(cfg, []*Table{tb}, 0, time.Time{}); zero.GeneratedAt != "" {
		t.Errorf("zero clock should omit GeneratedAt, got %q", zero.GeneratedAt)
	}
	buf, err := snap.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config != cfg {
		t.Errorf("config round-trip: %+v != %+v", back.Config, cfg)
	}
	if len(back.Experiments) != 1 {
		t.Fatalf("%d experiments after round trip", len(back.Experiments))
	}
	if !reflect.DeepEqual(back.Experiments[0], tb) {
		t.Errorf("table did not survive the round trip:\n%+v\n%+v", back.Experiments[0], tb)
	}
	if got, want := back.Experiments[0].Format(), tb.Format(); got != want {
		t.Errorf("re-formatted table differs:\n%s\n%s", got, want)
	}

	// Version gating: a snapshot from a different schema must be rejected.
	old := strings.Replace(string(buf), "\"schema_version\": 1", "\"schema_version\": 99", 1)
	if _, err := parseSnapshot([]byte(old)); err == nil {
		t.Error("foreign schema version accepted")
	}
	if _, err := parseSnapshot([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestRunFillsMetrics(t *testing.T) {
	tb, err := Run("E3", smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := tb.Metrics
	if m.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %g", m.WallSeconds)
	}
	if m.Workers < 1 {
		t.Errorf("Workers = %d", m.Workers)
	}
	if m.Cells <= 0 {
		t.Errorf("Cells = %d, want > 0 for an engine-backed experiment", m.Cells)
	}
	if m.BusySeconds <= 0 {
		t.Errorf("BusySeconds = %g", m.BusySeconds)
	}
	// Metrics must not leak into the deterministic text formats.
	for _, out := range []string{tb.Format(), tb.FormatTSV()} {
		if strings.Contains(out, "utilisation") || strings.Contains(out, "wall_seconds") {
			t.Errorf("metrics leaked into text output:\n%s", out)
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	tables, err := RunAll(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 20 {
		t.Fatalf("got %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", tb.ID)
		}
		if len(tb.Header) == 0 {
			t.Errorf("%s has no header", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Errorf("%s: row width %d != header width %d", tb.ID, len(row), len(tb.Header))
			}
		}
		out := tb.Format()
		if !strings.Contains(out, tb.ID) || !strings.Contains(out, tb.Header[0]) {
			t.Errorf("%s: Format output missing pieces", tb.ID)
		}
	}
}

func TestE1ExactLogFactor(t *testing.T) {
	tb, err := Run("E1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Column 5 (pot/n^1.5) must equal column 6 (expected k+1).
	for _, row := range tb.Rows {
		got, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("k=%s: pot ratio %g != expected %g", row[0], got, want)
		}
	}
}

func TestE2DichotomyInNote(t *testing.T) {
	tb, err := Run("E2", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every family's measured class must match the theorem's.
	for _, clause := range strings.Split(tb.Note, " | ") {
		if !strings.Contains(clause, "->") {
			continue
		}
		parts := strings.SplitN(clause, "->", 2)
		tail := parts[1] // " Θ(log n) (theorem: Θ(log n))"
		var measured, expected string
		if i := strings.Index(tail, "(theorem:"); i >= 0 {
			measured = strings.TrimSpace(tail[:i])
			expected = strings.TrimSpace(strings.TrimSuffix(tail[i+len("(theorem:"):], ")"))
		}
		if measured == "" || expected == "" {
			t.Fatalf("unparseable note clause: %q", clause)
		}
		if measured != expected {
			t.Errorf("dichotomy mismatch: %q", clause)
		}
	}
}

func TestE8AlignedGapIsExact(t *testing.T) {
	tb, err := Run("E8", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		aligned, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		full, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if aligned != full {
			t.Errorf("k=%s: aligned gap %g != full gap %g", row[0], aligned, full)
		}
	}
}

func TestE9ScanAlwaysOne(t *testing.T) {
	tb, err := Run("E9", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, row := range tb.Rows {
		if row[4] != "1" {
			t.Errorf("dim=%s: MM-Scan completed %s multiplies, want 1", row[0], row[4])
		}
		inp, err := strconv.Atoi(row[5])
		if err != nil {
			t.Fatal(err)
		}
		if inp < prev {
			t.Errorf("dim=%s: MM-InPlace count %d decreased from %d", row[0], inp, prev)
		}
		prev = inp
	}
}

func TestE10NoViolations(t *testing.T) {
	tb, err := Run("E10", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][1] != "0" {
		t.Errorf("No-Catch-up violations: %s", tb.Rows[0][1])
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tb := &Table{ID: "X", Title: "t", Header: []string{"a", "bbbb"}}
	tb.AddRow("long-cell", 1)
	out := tb.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("format too short: %q", out)
	}
	// Header and row lines must be aligned to the same width per column.
	if len(lines[1]) < len("long-cell") {
		t.Error("separator shorter than widest cell")
	}
}

func TestFormatTSV(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}, Note: "hello"}
	tb.AddRow(1, 2.5)
	out := tb.FormatTSV()
	if !strings.Contains(out, "a\tb\n") || !strings.Contains(out, "1\t2.500\n") {
		t.Errorf("tsv output wrong: %q", out)
	}
	if !strings.Contains(out, "# note: hello") {
		t.Errorf("note missing: %q", out)
	}
}

func TestA3ThresholdSharp(t *testing.T) {
	tb, err := Run("A3", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Gap at the largest size per c: must be < 2.5 for c < 1 and exactly
	// k+1 at c = 1.
	byC := map[string][]float64{}
	var order []string
	for _, row := range tb.Rows {
		c := row[0]
		if _, seen := byC[c]; !seen {
			order = append(order, c)
		}
		g, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		byC[c] = append(byC[c], g)
	}
	for _, c := range order {
		gaps := byC[c]
		last := gaps[len(gaps)-1]
		if c == "1.00" {
			if last < 4 {
				t.Errorf("c=1: top gap %g, want the log gap", last)
			}
		} else if last > 2.5 {
			t.Errorf("c=%s: top gap %g, want < 2.5", c, last)
		}
	}
}

func TestA6SpreadSlopeMatchesPrediction(t *testing.T) {
	cfg := testConfig()
	cfg.MaxK = 6
	tb, err := Run("A6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tailored-adversary column: consecutive differences must be near
	// a^{1-log_b a} = 0.3536 for (8,4,1).
	var prev float64
	for i, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			d := v - prev
			if d < 0.3 || d > 0.41 {
				t.Errorf("row %d: tailored-gap increment %g, want ~0.354", i, d)
			}
		}
		prev = v
	}
}

func TestA5BoundarySlopesNearWorstCase(t *testing.T) {
	tb, err := Run("A5", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The (2,2,1) iid gaps must grow by roughly 1 per level across the
	// sweep (worst-case-like), unlike E3's flat curves.
	var first, last float64
	var firstK, lastK float64
	count := 0
	for _, row := range tb.Rows {
		if row[0] != "(2,2,1)-regular" {
			continue
		}
		k, err1 := strconv.ParseFloat(row[1], 64)
		g, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if count == 0 {
			first, firstK = g, k
		}
		last, lastK = g, k
		count++
	}
	if count < 3 {
		t.Fatalf("only %d (2,2,1) rows", count)
	}
	slope := (last - first) / (lastK - firstK)
	if slope < 0.6 {
		t.Errorf("a=b iid slope %g, want near-worst-case (>= 0.6)", slope)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "E3", smallConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a dead context returned %v, want context.Canceled", err)
	}
	if _, err := RunAllContext(ctx, smallConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllContext on a dead context returned %v, want context.Canceled", err)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	cfg := smallConfig()
	a, err := Run("E1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), "E1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, p := stripMetrics([]*Table{a}), stripMetrics([]*Table{b})
	if !reflect.DeepEqual(s[0], p[0]) {
		t.Error("Run and RunContext disagree for the same (experiment, config)")
	}
}

func TestCacheKey(t *testing.T) {
	cfg := smallConfig()
	k1 := CacheKey("E3", cfg)
	if k2 := CacheKey("E3", cfg); k2 != k1 {
		t.Errorf("CacheKey not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("CacheKey length %d, want 64 hex chars", len(k1))
	}
	if k := CacheKey("E4", cfg); k == k1 {
		t.Error("changing the experiment ID did not move the key")
	}
	// For every experiment, moving a declared field moves the key and
	// moving an undeclared one does not, so configs share a key exactly
	// when the experiment cannot tell them apart.
	bumps := []struct {
		in   Inputs
		name string
		cfg  Config
	}{
		{InputSeed, "seed", Config{Seed: cfg.Seed + 1, Trials: cfg.Trials, MaxK: cfg.MaxK}},
		{InputTrials, "trials", Config{Seed: cfg.Seed, Trials: cfg.Trials + 1, MaxK: cfg.MaxK}},
		{InputMaxK, "maxk", Config{Seed: cfg.Seed, Trials: cfg.Trials, MaxK: cfg.MaxK + 1}},
	}
	for _, e := range Experiments() {
		k := CacheKey(e.ID, cfg)
		for _, b := range bumps {
			moved := CacheKey(e.ID, b.cfg) != k
			if declared := e.Inputs&b.in != 0; moved != declared {
				t.Errorf("%s (inputs %v): changing %s moved the key = %v, want %v",
					e.ID, e.Inputs.Names(), b.name, moved, declared)
			}
		}
	}
	// The context must NOT move the key: it is not part of the result.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if k := CacheKey("E3", cfg.WithContext(ctx)); k != k1 {
		t.Error("attaching a context changed the cache key")
	}
}

// parseSnapshot unmarshals and version-checks a snapshot, the reading
// half of the -format json round trip.
func parseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: invalid snapshot: %w", err)
	}
	if s.SchemaVersion != SnapshotSchemaVersion {
		return nil, fmt.Errorf("core: snapshot schema version %d, this build reads %d",
			s.SchemaVersion, SnapshotSchemaVersion)
	}
	return &s, nil
}
