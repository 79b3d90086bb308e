package adaptivity

import (
	"strings"
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
)

// measureMaterialized is the materialize-then-replay reference: build the
// full trace, then replay it into one SquareStream.
func measureMaterialized(spec regular.Spec, tr *trace.Trace, src profile.Source) (RunResult, error) {
	q := paging.NewSquareStream(src, 0)
	trace.Replay(tr, q)
	stats, err := q.Finish()
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Spec: spec, N: tr.MaxBlock() + 1, Boxes: int64(len(stats))}
	for _, s := range stats {
		res.BoundedPotential += spec.BoundedPotential(s.Size, res.N)
		res.Progress += s.Leaves
		res.BoxSizeSum += s.Size
	}
	return res, nil
}

// TestMeasureTraceBeyondMaterializationCeiling demonstrates the raised
// size limit the streaming pipeline buys: a (3,2,1)-regular problem of
// n = 2^17 blocks has T(n) = 3^18 − 2^18 ≈ 3.9·10^8 references, beyond
// SyntheticTrace's 2^28 materialization ceiling — a
// materialize-then-replay backend could not run it at all. The
// streaming backend completes it in O(n) memory (a ~1 MB residency array)
// and the result obeys the Theorem 2 shape (gap ≈ log_b n + 1 on the
// worst-case profile, bounded sanity here to keep the check cheap).
func TestMeasureTraceBeyondMaterializationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("~4·10^8 streamed references; skipped under -short")
	}
	spec := regular.MustSpec(3, 2, 1)
	n := int64(1) << 17

	// The materialized path must refuse this size…
	if _, err := regular.SyntheticTrace(spec, n); err == nil {
		t.Fatal("SyntheticTrace accepted a size past its ceiling; this test no longer demonstrates anything")
	} else if !strings.Contains(err.Error(), "too large") {
		t.Fatalf("SyntheticTrace failed for the wrong reason: %v", err)
	}

	// …while the streaming backend completes it.
	src := profile.FuncSource(func() int64 { return 4096 })
	res, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantLeaves := int64(1)
	for k := int64(0); k < 17; k++ {
		wantLeaves *= 3
	}
	if res.Progress != wantLeaves {
		t.Errorf("completed %d base cases, want 3^17 = %d", res.Progress, wantLeaves)
	}
	if res.Boxes < 1 || res.BoundedPotential <= 0 {
		t.Errorf("degenerate run: boxes=%d potential=%g", res.Boxes, res.BoundedPotential)
	}
	// Constant boxes well below n: the gap must sit between 1 (perfect) and
	// the worst case log_2(n)+1 = 18.
	if g := res.Gap(); g < 1 || g > 18 {
		t.Errorf("gap %.3f outside [1, 18]", g)
	}
}

// TestMeasureTraceStreamingMatchesMaterialized pins the equivalence that
// makes the streaming backend safe: at sizes the materialized path still
// handles, both backends must agree exactly.
func TestMeasureTraceStreamingMatchesMaterialized(t *testing.T) {
	spec := regular.MustSpec(8, 4, 1)
	n := int64(256)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	src1, err := profile.NewSliceSource(wc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Materialized reference: build the trace, replay via SquareStream.
	tr, err := regular.SyntheticTrace(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	src2, err := profile.NewSliceSource(wc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := measureMaterialized(spec, tr, src2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boxes != ref.Boxes || res.Progress != ref.Progress ||
		res.BoxSizeSum != ref.BoxSizeSum || res.BoundedPotential != ref.BoundedPotential {
		t.Fatalf("streaming %+v != materialized %+v", res, ref)
	}
}
