package trace

import "testing"

// Allocation regression tests for the //lint:hotpath functions in this
// package. The //allocguard: markers tie each hotpath annotation to the
// AllocsPerRun measurement that backs it; the lint suite's consistency
// test (internal/lint) fails if an annotation and its marker drift apart.

// allocTrace materializes a small trace with leaf markers for replay
// measurements.
func allocTrace() *Trace {
	b := &Builder{}
	for i := 0; i < 512; i++ {
		b.Access(int64(i % 37))
		if i%8 == 7 {
			b.EndLeaf()
		}
	}
	return b.Build()
}

// TestReplayZeroAlloc: replaying a materialized trace into the counting
// sink must not allocate — not per access, not per leaf, not per call.
//
// allocguard:Replay
// allocguard:ReplayRange
// allocguard:CountingSink.Access
// allocguard:CountingSink.EndLeaf
func TestReplayZeroAlloc(t *testing.T) {
	tr := allocTrace()
	var cs CountingSink
	avg := testing.AllocsPerRun(10, func() {
		Replay(tr, &cs)
		ReplayRange(tr, &cs, 1, tr.Len()-1)
	})
	if avg != 0 {
		t.Fatalf("Replay/ReplayRange allocate %.1f times per run, want 0", avg)
	}
}

// TestOffsetSinkZeroAlloc: the shifting adapter's own emitters are
// allocation-free once the adapter value exists.
//
// allocguard:OffsetSink.Access
// allocguard:OffsetSink.AccessRange
// allocguard:OffsetSink.EndLeaf
func TestOffsetSinkZeroAlloc(t *testing.T) {
	var cs CountingSink
	o := OffsetSink{S: &cs, Shift: 100}
	avg := testing.AllocsPerRun(10, func() {
		for i := int64(0); i < 256; i++ {
			o.Access(i)
		}
		o.AccessRange(0, 64)
		o.EndLeaf()
	})
	if avg != 0 {
		t.Fatalf("OffsetSink emitters allocate %.1f times per run, want 0", avg)
	}
}

// TestWindowSinkZeroAlloc: windowed forwarding allocates nothing whether
// references land inside, before, or past the window.
//
// allocguard:WindowSink.Access
// allocguard:WindowSink.AccessRange
// allocguard:WindowSink.EndLeaf
// allocguard:CountingSink.AccessRange
func TestWindowSinkZeroAlloc(t *testing.T) {
	var cs CountingSink
	w := NewWindowSink(&cs, 10, 1<<40)
	avg := testing.AllocsPerRun(10, func() {
		for i := int64(0); i < 256; i++ {
			w.Access(i)
		}
		w.AccessRange(0, 64)
		w.EndLeaf()
	})
	if avg != 0 {
		t.Fatalf("WindowSink emitters allocate %.1f times per run, want 0", avg)
	}
}
