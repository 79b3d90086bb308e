package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from the current output")

// TestGoldenOutput pins the example's printed report byte for byte.
// Regenerate with `go test ./examples/quickstart -run Golden -update`.
func TestGoldenOutput(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./examples/quickstart -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}
