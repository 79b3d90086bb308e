package paging

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// e13Trace materializes the MM-Scan trace the smoothness experiment (E13)
// sweeps: a dim×dim multiplication with 8-word blocks.
func e13Trace(t testing.TB, dim int) *trace.Trace {
	t.Helper()
	tr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScan(dim, 8, s) })
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkCurves requires LRUCurve and OPTRecording.Curve to equal one
// fixed-capacity replay per capacity, at every c in [1, maxCapacity], and
// faults[0] to be the reference count.
func checkCurves(t testing.TB, name string, tr *trace.Trace, maxCapacity int64) {
	t.Helper()
	rec, err := RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		t.Fatal(err)
	}
	lru, err := LRUCurve(tr, maxCapacity)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := rec.Curve(maxCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(lru)) != maxCapacity+1 || int64(len(opt)) != maxCapacity+1 {
		t.Fatalf("%s: curve lengths %d/%d, want %d", name, len(lru), len(opt), maxCapacity+1)
	}
	if refs := int64(tr.Len()); lru[0] != refs || opt[0] != refs {
		t.Fatalf("%s: faults at capacity 0 = %d (lru) / %d (opt), want the %d references", name, lru[0], opt[0], refs)
	}
	for c := int64(1); c <= maxCapacity; c++ {
		want, err := RunPolicyFixed("lru", tr, c)
		if err != nil {
			t.Fatal(err)
		}
		if lru[c] != want {
			t.Fatalf("%s: LRUCurve[%d] = %d, fixed replay %d", name, c, lru[c], want)
		}
		if want, err = rec.Fixed(c); err != nil {
			t.Fatal(err)
		}
		if opt[c] != want {
			t.Fatalf("%s: OPT Curve[%d] = %d, Fixed %d", name, c, opt[c], want)
		}
	}
}

// TestFaultCurvesMatchFixedReplays pins the one-pass stack curves to the
// per-capacity replays they replace: random traces over small and large
// universes (curves truncated below, at and above the universe), and the
// dim-64 MM-Scan trace over E13's whole sweep. E13's monotonicity check
// reads the curves, so the LRU kernel and OPT replay are pinned here and
// in FuzzKernelsMatchOracles.
func TestFaultCurvesMatchFixedReplays(t *testing.T) {
	src := xrand.New(xrand.Split(20, "fault-curves"))
	for _, universe := range []int64{1, 5, 24, 300} {
		tr := localTrace(src, 3000, universe)
		for _, maxCapacity := range []int64{1, 3, universe, universe + 7, 64} {
			checkCurves(t, "random", tr, maxCapacity)
		}
	}
	checkCurves(t, "empty", (&trace.Builder{}).Build(), 4)
	checkCurves(t, "E13 dim 64", e13Trace(t, 64), 136)

	if _, err := LRUCurve(e13Trace(t, 8), 0); err == nil {
		t.Error("LRUCurve accepted capacity 0")
	}
}

// TestFaultCurvesOneAlloc: each curve is one allocation — the counters and
// the truncated stack share it — and the stack passes allocate nothing.
//
// allocguard:lruStackDepths
// allocguard:OPTRecording.stackDepths
func TestFaultCurvesOneAlloc(t *testing.T) {
	tr := localTrace(xrand.New(xrand.Split(20, "fault-curve-allocs")), 2000, 90)
	rec, err := RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		t.Fatal(err)
	}
	const maxCapacity = 64
	if avg := testing.AllocsPerRun(10, func() { _, _ = LRUCurve(tr, maxCapacity) }); avg != 1 {
		t.Errorf("LRUCurve allocates %.1f times, want 1", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { _, _ = rec.Curve(maxCapacity) }); avg != 1 {
		t.Errorf("OPTRecording.Curve allocates %.1f times, want 1", avg)
	}
	hits, stack, err := newCurve(maxCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() { lruStackDepths(tr, stack, hits) }); avg != 0 {
		t.Errorf("lruStackDepths allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { rec.stackDepths(stack, hits) }); avg != 0 {
		t.Errorf("OPTRecording.stackDepths allocates %.1f times, want 0", avg)
	}
}
