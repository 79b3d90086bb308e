package paging

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// TestRunKernelFixedReuseMatchesFresh: one kernel per policy, reused
// across E13's whole sweep (capacities 8..136 on both dims' traces, visited
// in a shuffled order so capacity grows and shrinks and the traces
// interleave), reports at every (trace, capacity) the misses a fresh
// kernel does. A third, random trace over 200 blocks re-touches blocks an
// earlier replay left behind, which E13's traces mostly do not. Clear must
// reset every piece of replacement state — ARC's target p and ghost
// lists, 2Q's A1in and A1out, FIFO's ring — and the delta must drop the
// earlier replays' misses.
func TestRunKernelFixedReuseMatchesFresh(t *testing.T) {
	rng := xrand.New(xrand.Split(29, "fixed-reuse"))
	traces := []*trace.Trace{e13Trace(t, 64), e13Trace(t, 128), localTrace(rng, 4000, 200)}
	type run struct {
		tr       int
		capacity int64
	}
	var runs []run
	step := int64(1)
	if testing.Short() {
		step = 16
	}
	for tr := range traces {
		for m := int64(8); m <= 136; m += step {
			runs = append(runs, run{tr, m})
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	for _, name := range PolicyNames() {
		k, err := NewReplacementPolicy(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			tr := traces[r.tr]
			got, err := RunKernelFixed(k, tr, r.capacity)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunPolicyFixed(name, tr, r.capacity)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s trace %d capacity %d: reused kernel %d misses, fresh kernel %d", name, r.tr, r.capacity, got, want)
			}
		}
	}
	lru, err := NewLRU(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunKernelFixed(lru, traces[0], 0); err == nil {
		t.Error("RunKernelFixed accepted capacity 0")
	}
}
