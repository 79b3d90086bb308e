package matrix

import (
	"reflect"
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestTraceValidation(t *testing.T) {
	if _, err := materialize(EmitMulScan, 12, 8); err == nil {
		t.Error("non-power dim accepted")
	}
	if _, err := materialize(EmitMulScan, 4, 8); err == nil {
		t.Error("dim below base accepted")
	}
	if _, err := materialize(EmitMulScan, 64, 0); err == nil {
		t.Error("block size 0 accepted")
	}
}

func TestTraceLeafCounts(t *testing.T) {
	// Both algorithms perform (dim/base)^3 base-case products.
	for _, dim := range []int{16, 32, 64} {
		wantLeaves := int64((dim / baseDim) * (dim / baseDim) * (dim / baseDim))
		scan, err := materialize(EmitMulScan, dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Leaves() != wantLeaves {
			t.Errorf("dim=%d: MM-Scan leaves %d, want %d", dim, scan.Leaves(), wantLeaves)
		}
		inp, err := materialize(EmitMulInPlace, dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		if inp.Leaves() != wantLeaves {
			t.Errorf("dim=%d: MM-InPlace leaves %d, want %d", dim, inp.Leaves(), wantLeaves)
		}
	}
}

func TestTraceFootprints(t *testing.T) {
	const dim, bw = 64, 8
	d2 := int64(dim * dim)
	scan, _ := materialize(EmitMulScan, dim, bw)
	inp, _ := materialize(EmitMulInPlace, dim, bw)

	// MM-InPlace touches exactly the 3 matrices: 3·dim²/B blocks.
	if got, want := inp.DistinctBlocks(), 3*d2/bw; got != want {
		t.Errorf("MM-InPlace distinct blocks %d, want %d", got, want)
	}
	// MM-Scan additionally touches temporaries; with the stack allocator
	// the temp footprint at the top level is 2·dim² plus the nested stack:
	// strictly more than MM-InPlace but bounded by 3·dim² extra... just
	// assert the ordering and a sane bound.
	if scan.DistinctBlocks() <= inp.DistinctBlocks() {
		t.Error("MM-Scan should touch more blocks than MM-InPlace (temporaries)")
	}
	if scan.DistinctBlocks() > 10*d2/bw {
		t.Errorf("MM-Scan footprint %d blocks implausibly large", scan.DistinctBlocks())
	}
	// MM-Scan's trace is longer: the merge scans are extra work.
	if scan.Len() <= inp.Len() {
		t.Error("MM-Scan trace should be longer than MM-InPlace's")
	}
}

func TestTraceTempReuse(t *testing.T) {
	// The stack allocator must reuse temp space across sibling calls: the
	// footprint of dim=32 must be far below the sum of all temporaries
	// ever allocated (which would be 2·(dim² + 8·(dim/2)² + ...)).
	scan, _ := materialize(EmitMulScan, 32, 8)
	d2 := int64(32 * 32)
	// All-distinct temps would be 2·d²·(1 + 8/4 + 64/16 + ...) ≈ many d²;
	// stack reuse keeps it under 3·d² (matrices) + ~3.6·d² (temp stack).
	if scan.DistinctBlocks() > 8*d2/8 {
		t.Errorf("temp stack not reused: %d distinct blocks", scan.DistinctBlocks())
	}
}

// With a cache as big as the whole working set, one box should serve an
// entire multiply.
func TestTraceSingleBoxServesMultiply(t *testing.T) {
	scan, _ := materialize(EmitMulScan, 32, 8)
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{scan.DistinctBlocks()}))
	stats, err := paging.PolicyRun(paging.SquareReplayName, scan, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Errorf("one full-footprint box used %d boxes", len(stats))
	}
	if stats[0].Leaves != scan.Leaves() {
		t.Errorf("box completed %d of %d leaves", stats[0].Leaves, scan.Leaves())
	}
}

// multipliesOn counts how many of reps back-to-back copies of tr (each
// in a fresh address range) the boxes complete. It checks
// paging.Completions over tr.Emit against the same repetitions replayed
// one by one (trace.Replay into a trace.OffsetSink) into an unbounded
// square replay, counting what its first len(boxes) boxes serve.
func multipliesOn(t *testing.T, tr *trace.Trace, boxes []int64, reps int) int {
	t.Helper()
	src := func() profile.Source {
		s, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var closed, served int64
	q := paging.NewSquareStream(src(), 0, func(b paging.BoxStat) {
		if closed++; closed <= int64(len(boxes)) {
			served += b.Refs
		}
	})
	for r := 0; r < reps; r++ {
		trace.Replay(tr, trace.OffsetSink{S: q, Shift: int64(r) * (tr.MaxBlock() + 1)})
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	runs, err := paging.Completions(tr.Emit, src(), int64(len(boxes)), reps)
	if err != nil {
		t.Fatal(err)
	}
	if want := served / int64(tr.Len()); runs != want {
		t.Fatalf("Completions = %d, replayed repetitions complete %d", runs, want)
	}
	return int(runs)
}

// TestRepeatTrace: one box of the trace's footprint completes one of
// several repetitions in fresh address ranges; fewer than one repetition
// is rejected.
func TestRepeatTrace(t *testing.T) {
	tr, _ := materialize(EmitMulInPlace, 16, 8)
	foot := int64(tr.DistinctBlocks())
	if got := multipliesOn(t, tr, []int64{foot}, 3); got != 1 {
		t.Errorf("one footprint-sized box completed %d fresh repetitions, want 1", got)
	}
	for _, reps := range []int{0, -3} {
		src, _ := profile.NewBoxesSource([]int64{foot})
		if _, err := paging.Completions(tr.Emit, src, 1, reps); err == nil {
			t.Errorf("reps=%d accepted", reps)
		}
	}
}

// TestMulScanShuffledReplaysFromRewoundSource: the shuffled MM-Scan never
// stops early, so every emission from one generator state — into a sink
// that takes everything or one whose boxes run out after a few
// references — draws the same orders and leaves the generator in the same
// state. A1 replays one shuffled trace by rewinding its generator on this.
func TestMulScanShuffledReplaysFromRewoundSource(t *testing.T) {
	start := *xrand.New(7)
	rng := start
	emit := func(s trace.Sink) error { return EmitMulScanShuffled(32, 8, &rng, s) }
	first, err := trace.Materialize(emit)
	if err != nil {
		t.Fatal(err)
	}
	end := rng
	rng = start
	again, err := trace.Materialize(emit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) || rng != end {
		t.Fatal("a rewound generator emitted a different trace or ended elsewhere")
	}
	rng = start
	src, _ := profile.NewBoxesSource([]int64{5})
	q := paging.NewSquareStream(src, 1, func(paging.BoxStat) {})
	if err := emit(q); err != nil {
		t.Fatal(err)
	}
	if !q.Stopped() || rng != end {
		t.Fatal("an emission into a stopped sink left the generator elsewhere")
	}
}

// The paper's Section 3 contrast, in miniature: on the MM-Scan worst-case
// profile, MM-InPlace completes strictly more multiplies than MM-Scan.
func TestScanVsInPlaceOnWorstCaseProfile(t *testing.T) {
	const dim, bw = 64, 8
	scanTr, err := materialize(EmitMulScan, dim, bw)
	if err != nil {
		t.Fatal(err)
	}
	inpTr, err := materialize(EmitMulInPlace, dim, bw)
	if err != nil {
		t.Fatal(err)
	}

	wc, err := worstCaseProfile(dim, bw)
	if err != nil {
		t.Fatal(err)
	}
	boxes := wc.Boxes()

	const reps = 16
	scanCount := multipliesOn(t, scanTr, boxes, reps)
	inpCount := multipliesOn(t, inpTr, boxes, reps)
	// The paper: MM-Scan performs exactly one multiply on its worst-case
	// profile; MM-InPlace performs Ω(log(N/B)) multiplies on the same
	// profile.
	if scanCount != 1 {
		t.Errorf("MM-Scan completed %d multiplies on its worst-case profile, want exactly 1", scanCount)
	}
	if inpCount < 3 {
		t.Errorf("MM-InPlace completed only %d multiplies; expected Ω(log) many (>= 3 at dim 64)", inpCount)
	}
}

// The MM-InPlace multiply count grows with the problem size — the Ω(log)
// shape of the paper's Section 3 claim.
func TestInPlaceMultipliesGrowLogarithmically(t *testing.T) {
	const bw = 8
	counts := make(map[int]int)
	for _, dim := range []int{32, 128} {
		wc, err := worstCaseProfile(dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		inpTr, err := materialize(EmitMulInPlace, dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		counts[dim] = multipliesOn(t, inpTr, wc.Boxes(), 16)
	}
	if counts[128] <= counts[32] {
		t.Errorf("multiplies did not grow with size: dim32=%d, dim128=%d", counts[32], counts[128])
	}
}

func TestTraceStrassenShape(t *testing.T) {
	const bw = 8
	for _, dim := range []int{16, 32, 64} {
		tr, err := materialize(EmitMulStrassen, dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		// 7^levels base cases, levels = log2(dim/base).
		levels := 0
		for d := dim; d > baseDim; d /= 2 {
			levels++
		}
		want := int64(1)
		for i := 0; i < levels; i++ {
			want *= 7
		}
		if tr.Leaves() != want {
			t.Errorf("dim=%d: leaves %d, want %d", dim, tr.Leaves(), want)
		}
	}
}

func TestTraceStrassenTrendsBelowScan(t *testing.T) {
	// Strassen performs 7^k base cases vs MM-Scan's 8^k but pays larger
	// per-level scan constants, so its advantage is asymptotic: the ratio
	// of trace lengths must strictly decrease as the dimension doubles.
	const bw = 8
	ratio := func(dim int) float64 {
		st, err := materialize(EmitMulStrassen, dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := materialize(EmitMulScan, dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Len()) / float64(sc.Len())
	}
	r64, r128, r256 := ratio(64), ratio(128), ratio(256)
	if !(r256 < r128 && r128 < r64) {
		t.Errorf("Strassen/MM-Scan trace-length ratio not decreasing: %.3f, %.3f, %.3f", r64, r128, r256)
	}
}

func TestTraceStrassenValidation(t *testing.T) {
	if _, err := materialize(EmitMulStrassen, 12, 8); err == nil {
		t.Error("non-power dim accepted")
	}
}

// materialize buffers one of this package's emitters into a trace.
func materialize(emit func(int, int64, trace.Sink) error, size int, bw int64) (*trace.Trace, error) {
	return trace.Materialize(func(s trace.Sink) error { return emit(size, bw, s) })
}
