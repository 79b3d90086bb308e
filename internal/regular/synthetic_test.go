package regular

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/trace"
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

// perLeafEmit is the generator's original shape, kept as the reference the
// leaf-parent inlining is checked against: one recursive call per base
// case, no early stop.
func perLeafEmit(s trace.Sink, spec Spec, m, off int64) {
	if m == 1 {
		s.Access(off)
		s.EndLeaf()
		return
	}
	child := m / spec.B
	for i := int64(0); i < spec.A; i++ {
		perLeafEmit(s, spec, child, off+(i%spec.B)*child)
	}
	s.AccessRange(off, spec.ScanLen(m))
}

// sinkCall is one call a generator made on a sink: an Access (count 0), an
// AccessRange, or an EndLeaf (lo -1).
type sinkCall struct{ lo, count int64 }

// callLog records every sink call verbatim, so two generators compare call
// for call, not just reference for reference.
type callLog struct{ calls []sinkCall }

func (l *callLog) Access(block int64)      { l.calls = append(l.calls, sinkCall{block, 0}) }
func (l *callLog) AccessRange(lo, n int64) { l.calls = append(l.calls, sinkCall{lo, n}) }
func (l *callLog) EndLeaf()                { l.calls = append(l.calls, sinkCall{-1, 0}) }

func refsOf(calls []sinkCall) (refs int64) {
	for _, c := range calls {
		switch {
		case c.lo < 0:
		case c.count == 0:
			refs++
		default:
			refs += c.count
		}
	}
	return refs
}

// syntheticCases covers a < b, a = b and a > b, each with a full scan
// (c = 1) and a sublinear one (c < 1), at several sizes.
var syntheticCases = []struct {
	spec  Spec
	sizes []int64
}{
	{MustSpec(2, 4, 1), []int64{1, 4, 16, 64, 256}},
	{MustSpec(3, 4, 0.5), []int64{4, 16, 64, 256}},
	{MustSpec(4, 4, 1), []int64{4, 16, 64, 256}},
	{MustSpec(2, 2, 0.5), []int64{2, 8, 32, 128}},
	{MMScanSpec, []int64{1, 4, 16, 64, 256}},
	{MMInPlaceSpec, []int64{4, 16, 64, 256}},
	{LCSSpec, []int64{2, 8, 32, 128}},
}

// TestEmitSyntheticMatchesPerLeafRecursion: inlining the leaves of every
// leaf-parent leaves the emitted stream — every Access, AccessRange and
// EndLeaf, in order — exactly as the per-leaf recursion produced it.
func TestEmitSyntheticMatchesPerLeafRecursion(t *testing.T) {
	for _, tc := range syntheticCases {
		for _, n := range tc.sizes {
			var got, want callLog
			if err := EmitSynthetic(tc.spec, n, &got); err != nil {
				t.Fatal(err)
			}
			perLeafEmit(&want, tc.spec, n, 0)
			if !reflect.DeepEqual(got.calls, want.calls) {
				t.Fatalf("%v n=%d: stream diverges from the per-leaf recursion (%d calls, want %d)",
					tc.spec, n, len(got.calls), len(want.calls))
			}
		}
	}
}

// stopAfter is a Stopper sink that stops once it has received limit
// references. It logs its calls, counts the references in calls that
// arrive after it has stopped, and records whether any call arrives after
// it has answered Stopped() with true.
type stopAfter struct {
	callLog
	limit    int64
	received int64
	late     int64 // references in calls made after received reached limit
	reported bool  // Stopped() has returned true
	afterAck bool  // a call arrived after that
}

func (s *stopAfter) take(n int64) {
	if s.reported {
		s.afterAck = true
	}
	if s.received >= s.limit {
		s.late += n
	}
	s.received += n
}

func (s *stopAfter) Access(block int64) {
	s.take(1)
	s.callLog.Access(block)
}

func (s *stopAfter) AccessRange(lo, n int64) {
	s.take(n)
	s.callLog.AccessRange(lo, n)
}

func (s *stopAfter) EndLeaf() {
	if s.reported {
		s.afterAck = true
	}
	s.callLog.EndLeaf()
}

func (s *stopAfter) Stopped() bool {
	if s.received >= s.limit {
		s.reported = true
	}
	return s.reported
}

// TestEmitSyntheticStopsWithinOneLeafParent: a sink that stops mid-run
// receives at most one leaf-parent's worth of references (its a leaves
// and its scan) after it stops, nothing at all once it has said so, and
// before that exactly the prefix of the full stream.
func TestEmitSyntheticStopsWithinOneLeafParent(t *testing.T) {
	for _, tc := range syntheticCases {
		n := tc.sizes[len(tc.sizes)-1]
		var full callLog
		perLeafEmit(&full, tc.spec, n, 0)
		total := refsOf(full.calls)
		bound := tc.spec.A + tc.spec.ScanLen(tc.spec.B)
		for limit := int64(1); limit < total; limit += 1 + limit/16 {
			s := &stopAfter{limit: limit}
			if err := EmitSynthetic(tc.spec, n, s); err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%v n=%d stop after %d of %d refs", tc.spec, n, limit, total)
			if s.late > bound {
				t.Fatalf("%s: %d references after the stop, want at most a + ScanLen(b) = %d", ctx, s.late, bound)
			}
			if s.afterAck {
				t.Fatalf("%s: emission continued after Stopped() returned true", ctx)
			}
			if !reflect.DeepEqual(s.calls, full.calls[:len(s.calls)]) {
				t.Fatalf("%s: stopped stream is not a prefix of the full one", ctx)
			}
			if s.received < limit {
				t.Fatalf("%s: emission stopped after %d references, before the sink did", ctx, s.received)
			}
		}
	}
}

// BenchmarkEmitSynthetic times the workload generator alone: MM-Scan's
// canonical stream into a CountingSink, reported in ns per reference.
func BenchmarkEmitSynthetic(b *testing.B) {
	for _, k := range []int{6, 7} {
		n := profile.Pow(4, k)
		b.Run(fmt.Sprintf("n=4^%d", k), func(b *testing.B) {
			var refs int64
			for i := 0; i < b.N; i++ {
				var c trace.CountingSink
				if err := EmitSynthetic(MMScanSpec, n, &c); err != nil {
					b.Fatal(err)
				}
				refs += c.Refs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}
