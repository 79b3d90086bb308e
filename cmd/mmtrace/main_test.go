package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current output")

// profileTSV is a committed hand-made profile, so the path the command
// prints is stable.
const profileTSV = "testdata/profile.tsv"

// runArgs runs the command in-process and returns its stdout.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runArgs(t, args...)
	if err != nil {
		t.Fatalf("mmtrace %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// goldenCase is one invocation whose output the golden file pins.
type goldenCase struct {
	name string
	args []string
}

func goldenCases() []goldenCase {
	scan := []string{"-alg", "scan", "-dim", "32"}
	with := func(extra ...string) []string { return append(append([]string{}, scan...), extra...) }
	cases := []goldenCase{
		{"stats", with("-stats")},
		{"lru-default", with("-lru", "64")},
		{"lru-opt-flag", with("-lru", "64", "-opt")},
		{"worstcase-scan", with("-worstcase", "-reps", "4")},
		{"worstcase-fwscan", []string{"-alg", "fwscan", "-dim", "32", "-worstcase", "-reps", "4"}},
		{"profile-default", with("-profile", profileTSV)},
	}
	for _, name := range paging.PolicyNames() {
		cases = append(cases, goldenCase{"lru-" + name, with("-lru", "64", "-policy", name, "-opt")})
	}
	cases = append(cases, goldenCase{"lru-opt", with("-lru", "64", "-policy", paging.OPTReplayName)})
	for _, name := range paging.ReplayNames() {
		cases = append(cases, goldenCase{"profile-" + name, with("-profile", profileTSV, "-policy", name)})
	}
	return cases
}

// TestGoldenOutput pins every report mmtrace prints: -stats, -lru under
// each policy (with -opt), -worstcase, and -profile under every replay
// name. Regenerate with `go test ./cmd/mmtrace -run Golden -update`.
func TestGoldenOutput(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&got, "== %s: mmtrace %s\n%s", c.name, strings.Join(c.args, " "), mustRun(t, c.args...))
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/mmtrace -run Golden -update` to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

// TestStreamMatchesMaterialized: -stream regenerates the trace into each
// consumer instead of building it once; every report that does not need
// the full trace must print the same bytes either way.
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, c := range goldenCases() {
		if usesOPT(c.args) {
			continue // opt refuses -stream (TestRejectsBadFlags)
		}
		t.Run(c.name, func(t *testing.T) {
			mat := mustRun(t, c.args...)
			str := mustRun(t, append(c.args, "-stream")...)
			if mat != str {
				t.Errorf("-stream output differs:\n--- materialized ---\n%s--- stream ---\n%s", mat, str)
			}
		})
	}
}

func usesOPT(args []string) bool {
	for _, a := range args {
		if a == "-opt" || a == paging.OPTReplayName {
			return true
		}
	}
	return false
}

// TestWorkerCountsAgree: mmtrace replays serially, so the shared engine
// pool's worker bound must never change what it prints.
func TestWorkerCountsAgree(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	for _, args := range [][]string{
		{"-alg", "scan", "-dim", "32", "-worstcase", "-reps", "4"},
		{"-alg", "scan", "-dim", "32", "-worstcase", "-reps", "4", "-stream"},
		{"-alg", "scan", "-dim", "32", "-profile", profileTSV},
		{"-alg", "scan", "-dim", "32", "-profile", profileTSV, "-stream"},
	} {
		engine.SetSharedWorkers(1)
		one := mustRun(t, args...)
		engine.SetSharedWorkers(2)
		two := mustRun(t, args...)
		if one != two {
			t.Errorf("%v: worker bounds 1 and 2 differ:\n%s---\n%s", args, one, two)
		}
	}
}

// TestLRUMissesMatchKernel checks the -lru report against an independent
// fixed-capacity replay of the same trace.
func TestLRUMissesMatchKernel(t *testing.T) {
	b := &trace.Builder{}
	if err := matrix.EmitMulScan(32, 8, b); err != nil {
		t.Fatal(err)
	}
	tr := b.Build()
	for _, name := range append(paging.PolicyNames(), paging.OPTReplayName) {
		misses, err := paging.RunPolicyFixed(name, tr, 64)
		if err != nil {
			t.Fatal(err)
		}
		out := mustRun(t, "-alg", "scan", "-dim", "32", "-lru", "64", "-policy", name)
		want := fmt.Sprintf("%s(M=64 blocks): %d misses", strings.ToUpper(name), misses)
		if !strings.HasPrefix(out, want) {
			t.Errorf("-policy %s printed %q, want prefix %q", name, out, want)
		}
	}
}

// TestRejectsBadFlags covers the inputs that must fail before (or instead
// of) a replay.
func TestRejectsBadFlags(t *testing.T) {
	scan := []string{"-alg", "scan", "-dim", "32"}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-lru", "8", "-policy", "clock"}, "have [2q arc fifo lru opt square]"},
		{"lru with square", []string{"-lru", "8", "-policy", "square"}, "no fixed-capacity form"},
		{"stream with -policy opt", []string{"-lru", "8", "-policy", "opt", "-stream"}, "drop -stream"},
		{"stream with -opt", []string{"-lru", "8", "-opt", "-stream"}, "drop -stream"},
		{"stream with opt profile", []string{"-profile", profileTSV, "-policy", "opt", "-stream"}, "drop -stream"},
		{"zero reps", []string{"-worstcase", "-reps", "0"}, "-reps 0"},
		{"negative reps", []string{"-worstcase", "-reps", "-3"}, "-reps -3"},
		{"unknown algorithm", []string{"-alg", "bogus", "-stats"}, "unknown algorithm"},
		{"nothing to do", nil, "nothing to do"},
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
	} {
		args := append(append([]string{}, scan...), c.args...)
		if c.name == "unknown algorithm" {
			args = c.args
		}
		out, err := runArgs(t, args...)
		if err == nil {
			t.Errorf("%s: accepted, printed %q", c.name, out)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
