package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// fixedClock is the injected test clock: every call returns the same
// instant, so GeneratedAt and wall times are fully deterministic without
// normalization tricks.
func fixedClock() time.Time {
	return time.Date(2020, 7, 15, 12, 0, 0, 0, time.UTC)
}

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// smokeArgs is the cheap deterministic configuration the golden file was
// generated with (E1 is pure construction: no Monte-Carlo, milliseconds).
var smokeArgs = []string{"-exp", "E1", "-seed", "7", "-trials", "2", "-maxk", "4", "-format", "json"}

// parseSnapshot unmarshals CLI JSON output and checks its schema version.
func parseSnapshot(data []byte) (*core.Snapshot, error) {
	var s core.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.SchemaVersion != core.SnapshotSchemaVersion {
		return nil, fmt.Errorf("snapshot schema version %d, this build reads %d", s.SchemaVersion, core.SnapshotSchemaVersion)
	}
	return &s, nil
}

// normalizeSnapshot zeroes the run-dependent parts — timestamp, wall times,
// engine metrics — leaving exactly the deterministic content the schema
// promises.
func normalizeSnapshot(t *testing.T, raw []byte) []byte {
	t.Helper()
	snap, err := parseSnapshot(raw)
	if err != nil {
		t.Fatalf("CLI JSON output is not a valid snapshot: %v", err)
	}
	snap.GeneratedAt = ""
	snap.TotalWallSeconds = 0
	for _, tb := range snap.Experiments {
		tb.Metrics = core.Metrics{}
	}
	out, err := snap.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenJSONOutput runs the real CLI path end to end (`cadaptive -exp
// E1 -format json`) and byte-compares the metrics-stripped snapshot against
// a committed golden file. Any drift in the JSON schema — renamed fields,
// changed formatting, a schema-version bump without regenerating goldens —
// fails loudly here.
func TestGoldenJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(smokeArgs, &buf, fixedClock); err != nil {
		t.Fatal(err)
	}
	// The clock is injected, so even the pre-normalization timestamp is
	// deterministic: core.NewSnapshot never reads the wall clock itself.
	if raw, err := parseSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	} else if raw.GeneratedAt != "2020-07-15T12:00:00Z" {
		t.Errorf("GeneratedAt %q, want the injected fixed clock", raw.GeneratedAt)
	}
	got := normalizeSnapshot(t, buf.Bytes())

	golden := filepath.Join("testdata", "golden_e1.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/cadaptive -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON snapshot drifted from %s:\n--- got ---\n%s\n--- want ---\n%s\n(intentional schema changes: bump core.SnapshotSchemaVersion and regenerate with -update)",
			golden, got, want)
	}
}

// TestGoldenJSONStableAcrossRuns guards the premise of the golden file (and
// of the service's result cache): two runs with the same config produce
// byte-identical normalized snapshots.
func TestGoldenJSONStableAcrossRuns(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(smokeArgs, &a, fixedClock); err != nil {
		t.Fatal(err)
	}
	if err := run(smokeArgs, &b, fixedClock); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeSnapshot(t, a.Bytes()), normalizeSnapshot(t, b.Bytes())) {
		t.Error("same config, different normalized snapshots")
	}
}

// TestListOutput covers the -list path through the injected writer.
func TestListOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf, fixedClock); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(core.Experiments()) {
		t.Fatalf("-list printed %d lines, want %d", len(lines), len(core.Experiments()))
	}
	for _, id := range []string{"E1", "E11", "A7"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

// TestBadFlagsError covers the error paths that must not reach a run.
func TestBadFlagsError(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "E1", "-format", "xml"},
		{"-exp", "E1", "-workers", "-1"},
		{"-exp", "nope"},
		{"-exp", "E1", "-trials", "0"},
		{"-exp", "E1", "-maxk", "99"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf, fixedClock); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRemoteMatchesLocal is the remote-mode contract: `-server URL` output
// is byte-identical to the in-process run for the same config and format,
// because the server funnels into the same core.RunContext entry point.
func TestRemoteMatchesLocal(t *testing.T) {
	s, err := service.New(service.Options{Addr: "127.0.0.1:0", MaxConcurrentRuns: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, format := range []string{"text", "tsv", "json"} {
		local, remote := new(bytes.Buffer), new(bytes.Buffer)
		base := []string{"-exp", "E1", "-seed", "7", "-trials", "2", "-maxk", "4", "-format", format}
		if err := run(base, local, fixedClock); err != nil {
			t.Fatalf("local %s: %v", format, err)
		}
		if err := run(append(base, "-server", srv.URL), remote, fixedClock); err != nil {
			t.Fatalf("remote %s: %v", format, err)
		}
		got, want := remote.Bytes(), local.Bytes()
		if format == "json" {
			// Engine metrics are measured on whichever side ran the cells;
			// compare the deterministic content the schema promises.
			got, want = normalizeSnapshot(t, got), normalizeSnapshot(t, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("remote %s output differs from local:\n--- remote ---\n%s\n--- local ---\n%s", format, got, want)
		}
	}
}

// TestRemoteList covers `-list -server URL` and the -workers rejection.
func TestRemoteList(t *testing.T) {
	s, err := service.New(service.Options{Addr: "127.0.0.1:0", MaxConcurrentRuns: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	localList, remoteList := new(bytes.Buffer), new(bytes.Buffer)
	if err := run([]string{"-list"}, localList, fixedClock); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-list", "-server", srv.URL}, remoteList, fixedClock); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localList.Bytes(), remoteList.Bytes()) {
		t.Errorf("remote -list differs from local:\n%s\nvs\n%s", remoteList, localList)
	}

	var buf bytes.Buffer
	if err := run([]string{"-exp", "E1", "-server", srv.URL, "-workers", "4"}, &buf, fixedClock); err == nil {
		t.Error("-workers with -server accepted; it cannot apply remotely")
	}
}

// TestConfigErrorNamesFlag keeps the ConfigError → flag attribution.
func TestConfigErrorNamesFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "E1", "-trials", "0"}, &buf, fixedClock)
	if err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("error %v does not name the -trials flag", err)
	}
	err = run([]string{"-exp", "E1", "-maxk", "3"}, &buf, fixedClock)
	if err == nil || !strings.Contains(err.Error(), "-maxk") {
		t.Errorf("error %v does not name the -maxk flag", err)
	}
}
