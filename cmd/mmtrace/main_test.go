package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// TestWorkerCountsAgree: mmtrace replays serially, so the shared engine
// pool's worker bound must never change what it prints.
func TestWorkerCountsAgree(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	for _, args := range [][]string{
		{"-alg", "scan", "-dim", "32", "-worstcase", "-reps", "4"},
		{"-alg", "scan", "-dim", "32", "-profile", profileTSV},
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
	tr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScan(32, 8, s) })
	if err != nil {
		t.Fatal(err)
	}
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

// TestOPTRefusesHugeTraceUnbuilt: the in-place multiply at dim 1024 with
// one-word blocks is about 4·10^8 references, 1.5× OPT's 2^28 ceiling.
// -lru -opt must refuse it from the streamed count alone: the refusal
// comes before the LRU replay and before any of the trace (3 GiB
// materialized) is built.
func TestOPTRefusesHugeTraceUnbuilt(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := runArgs(t, "-alg", "inplace", "-dim", "1024", "-block", "1", "-lru", "8", "-opt")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "too large to materialize") {
		t.Fatalf("err = %v (printed %q), want the opt ceiling refusal", err, out)
	}
	if out != "" {
		t.Errorf("printed %q before refusing", out)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<24 {
		t.Errorf("allocated %d bytes before refusing; the trace must not be built", alloc)
	}
}
