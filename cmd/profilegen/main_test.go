package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current output")

// goldenCases covers every -type, -render, and the refusals (an
// over-limit profile, an unknown type, an unknown flag), each of which
// must print no profile. The recursive profiles run at n = 16 so the
// golden file stays small; the -render case is the README invocation.
func goldenCases() [][]string {
	return [][]string{
		{"-type", "worstcase", "-a", "8", "-b", "4", "-n", "16"},
		{"-type", "shuffled", "-a", "8", "-b", "4", "-n", "16", "-seed", "7"},
		{"-type", "orderperturbed", "-a", "8", "-b", "4", "-n", "16"},
		{"-type", "sawtooth", "-min", "16", "-max", "512", "-period", "600", "-len", "3000"},
		{"-type", "walk", "-min", "16", "-max", "512", "-step", "8", "-len", "3000", "-seed", "7"},
		{"-type", "constant", "-max", "64", "-len", "300"},
		{"-type", "worstcase", "-a", "8", "-b", "4", "-n", "1024", "-render"},
		{"-type", "worstcase", "-a", "8", "-b", "4", "-n", "1024", "-limit", "100"},
		{"-type", "bogus"},
		{"-frobnicate"},
	}
}

// TestGoldenOutput pins stdout, stderr and the error of every golden case.
// Regenerate with `go test ./cmd/profilegen -run Golden -update`.
func TestGoldenOutput(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenCases() {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "== profilegen %s\n-- error: %v\n-- stderr:\n%s-- stdout:\n%s",
			strings.Join(args, " "), err, stderr.String(), stdout.String())
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/profilegen -run Golden -update` to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
