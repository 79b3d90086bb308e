package regular

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// TestExecStepZeroAlloc: the frame stack is sized to k+1 by NewExec, so a
// whole run — Reset, then Steps under every layout until Done — allocates
// nothing, and NewExec itself allocates only the executor and its stack.
//
// allocguard:Exec.Step
func TestExecStepZeroAlloc(t *testing.T) {
	spec := MMScanSpec
	n := profile.Pow(4, 6)
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := NewExec(spec, n); err != nil {
			t.Fatal(err)
		}
	}); avg != 2 {
		t.Errorf("NewExec allocates %.1f times, want 2 (the executor and its frame stack)", avg)
	}
	for _, l := range execLayouts(spec) {
		e := newLayoutExec(t, spec, n, l)
		rng := xrand.New(xrand.Split(7, "exec-alloc"))
		run := func() {
			e.Reset()
			for !e.Done() {
				e.Step(1 + rng.Int63n(n/4))
			}
		}
		run()
		if avg := testing.AllocsPerRun(5, run); avg != 0 {
			t.Errorf("%s: a full run allocates %.1f times, want 0", l.name, avg)
		}
	}
}
