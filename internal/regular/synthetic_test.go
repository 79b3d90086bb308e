package regular

import (
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/xrand"
)

func TestSyntheticTraceShape(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		n    int64
	}{
		{MMScanSpec, 64}, {MMInPlaceSpec, 64}, {LCSSpec, 32}, {MustSpec(3, 2, 1), 64},
	} {
		tr, err := SyntheticTrace(tc.spec, tc.n)
		if err != nil {
			t.Fatalf("%v: %v", tc.spec, err)
		}
		if got, want := float64(tr.Len()), tc.spec.IOCost(tc.n); got != want {
			t.Errorf("%v n=%d: trace len %g, want T(n)=%g", tc.spec, tc.n, got, want)
		}
		if got, want := float64(tr.Leaves()), tc.spec.LeafCount(tc.n); got != want {
			t.Errorf("%v n=%d: leaves %g, want %g", tc.spec, tc.n, got, want)
		}
		// Definition 2: a problem of size n accesses exactly Θ(n) distinct
		// blocks; the canonical generator achieves exactly n.
		if got := tr.DistinctBlocks(); got != tc.n {
			t.Errorf("%v n=%d: distinct blocks %d, want %d", tc.spec, tc.n, got, tc.n)
		}
	}
}

func TestSyntheticTraceValidation(t *testing.T) {
	if _, err := SyntheticTrace(MMScanSpec, 48); err == nil {
		t.Error("non-power size accepted")
	}
	if _, err := SyntheticTrace(MMScanSpec, profile.Pow(4, 15)); err == nil {
		t.Error("huge trace accepted")
	}
}

// The canonical worst-case profile must behave identically in the symbolic
// model and in the trace/paging model: every size-1 box completes exactly
// one leaf, every larger box serves exactly one scan and completes nothing,
// and the profile is consumed exactly.
func TestWorstCaseProfileTraceAgreement(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		n    int64
	}{
		{MMScanSpec, 64}, {MustSpec(2, 2, 1), 64}, {MustSpec(4, 2, 1), 32},
	} {
		tr, err := SyntheticTrace(tc.spec, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := profile.WorstCase(tc.spec.A, tc.spec.B, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		src, err := profile.NewSliceSource(wc)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != wc.Len() {
			t.Fatalf("%v n=%d: used %d boxes, profile has %d", tc.spec, tc.n, len(stats), wc.Len())
		}
		for i, s := range stats {
			if s.Size == 1 && s.Leaves != 1 {
				t.Fatalf("%v: leaf box %d completed %d leaves", tc.spec, i, s.Leaves)
			}
			if s.Size > 1 && s.Leaves != 0 {
				t.Fatalf("%v: scan box %d (size %d) completed %d leaves", tc.spec, i, s.Size, s.Leaves)
			}
			if s.IOs != s.Size {
				t.Fatalf("%v: box %d used %d of %d I/Os (worst-case profile must be exact)", tc.spec, i, s.IOs, s.Size)
			}
		}
		if paging.TotalLeaves(stats) != tr.Leaves() {
			t.Fatalf("%v: leaves %d of %d", tc.spec, paging.TotalLeaves(stats), tr.Leaves())
		}
	}
}

// A single box of size n must complete the whole problem in both models.
func TestSingleBoxTraceAgreement(t *testing.T) {
	spec := MMScanSpec
	n := int64(64)
	tr, err := SyntheticTrace(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{n}))
	stats, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Leaves != tr.Leaves() {
		t.Fatalf("stats = %+v, want single box with all %d leaves", stats, tr.Leaves())
	}
}

// Cross-validation under constant box sizes: the number of boxes the trace
// model needs is within a small constant factor of the symbolic model's
// (the paper's simplified caching model is w.l.o.g. up to constants).
func TestConstantBoxCrossValidation(t *testing.T) {
	spec := MMScanSpec
	n := int64(256)
	tr, err := SyntheticTrace(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, boxSize := range []int64{1, 4, 16, 64, 256} {
		// Symbolic.
		e, err := NewExec(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		for !e.Done() {
			e.Step(boxSize)
		}
		symBoxes := e.BoxesUsed()

		// Trace-based.
		src, _ := profile.NewSliceSource(profile.MustNew([]int64{boxSize}))
		stats, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		traceBoxes := int64(len(stats))

		lo, hi := symBoxes/4, symBoxes*4
		if traceBoxes < lo || traceBoxes > hi {
			t.Errorf("box size %d: trace model used %d boxes, symbolic %d (outside 4x band)",
				boxSize, traceBoxes, symBoxes)
		}
	}
}

// Cross-validation under i.i.d. random box sizes: symbolic and trace
// backends must agree on boxes-to-complete within the model's constant
// slack.
func TestIIDBoxCrossValidation(t *testing.T) {
	spec := MMScanSpec
	n := int64(256)
	tr, err := SyntheticTrace(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		// Symbolic.
		rng1 := xrand.New(seed)
		e, err := NewExec(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		for !e.Done() {
			e.Step(4 + rng1.Int63n(61))
		}
		symBoxes := e.BoxesUsed()

		// Trace-based, same box stream.
		rng2 := xrand.New(seed)
		src := profile.FuncSource(func() int64 { return 4 + rng2.Int63n(61) })
		stats, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		traceBoxes := int64(len(stats))
		if traceBoxes < symBoxes/4 || traceBoxes > symBoxes*4 {
			t.Errorf("seed %d: trace %d boxes vs symbolic %d (outside 4x band)", seed, traceBoxes, symBoxes)
		}
	}
}
