package paging

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// cycling returns a forkable source cycling over boxes. BoxesSource does
// not validate sizes, which also lets error-parity tests inject invalid
// boxes into the forkable path.
func cycling(t *testing.T, boxes []int64) profile.ForkableSource {
	t.Helper()
	src, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

var shardCounts = []int{1, 2, 3, 5, 8, 16}

// --- SquareEmitParallel over a materialized trace (tr.Emit) -----------------

func TestSquareRunParallelMatchesSerialAtAnyShardCount(t *testing.T) {
	rng := xrand.New(0x5a1)
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng, 50+rng.Intn(2000), 1+rng.Int63n(64))
		boxes := make([]int64, 1+rng.Intn(6))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(20)
		}
		want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			got, err := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 0, shards)
			if err != nil {
				t.Fatalf("trial %d shards %d: %v", trial, shards, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shards %d: parallel ledger diverges\ngot  %+v\nwant %+v", trial, shards, got, want)
			}
		}
	}
}

func TestSquareRunParallelAtWorkerCounts(t *testing.T) {
	// The promise the experiments lean on: output depends on nothing but
	// the inputs, at any -workers setting (shards = DefaultShards()).
	defer engine.SetSharedWorkers(0)
	rng := xrand.New(0x5a2)
	tr := randomTrace(rng, 5000, 48)
	boxes := []int64{7, 3, 12, 1, 9}
	want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		engine.SetSharedWorkers(workers)
		got, err := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 0, 0)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: parallel ledger diverges", workers)
		}
	}
}

func TestSquareRunParallelNonForkableFallsBack(t *testing.T) {
	rng := xrand.New(0x5a3)
	tr := randomTrace(rng, 400, 32)
	boxes := []int64{5, 2, 8}
	want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	fn := profile.FuncSource(func() int64 { b := boxes[i%len(boxes)]; i++; return b })
	got, err := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), fn, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FuncSource path diverges from serial")
	}
}

func TestSquareRunParallelErrorParityMaxBoxes(t *testing.T) {
	rng := xrand.New(0x5a4)
	tr := randomTrace(rng, 3000, 64)
	boxes := []int64{3, 1, 2}
	wantStats, wantErr := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 5)
	if wantErr == nil {
		t.Fatal("test needs a maxBoxes-exceeded run")
	}
	for _, shards := range []int{2, 8} {
		gotStats, gotErr := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 5, shards)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("shards %d: error = %v, want %v", shards, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("shards %d: partial stats diverge on the error path", shards)
		}
	}
}

func TestSquareRunParallelErrorParityBadBox(t *testing.T) {
	// An invalid size mid-sequence must surface the same error and partial
	// ledger as the serial kernel; the plan pass hits it and falls back.
	rng := xrand.New(0x5a5)
	tr := randomTrace(rng, 3000, 64)
	boxes := []int64{4, 7, 0}
	wantStats, wantErr := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
	if wantErr == nil {
		t.Fatal("test needs an invalid-box run")
	}
	for _, shards := range []int{2, 8} {
		gotStats, gotErr := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 0, shards)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("shards %d: error = %v, want %v", shards, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("shards %d: partial stats diverge on the error path", shards)
		}
	}
}

// --- SquareEmitParallel -----------------------------------------------------

func TestSquareEmitParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(0x5b1)
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(rng, 50+rng.Intn(3000), 1+rng.Int63n(80))
		boxes := make([]int64, 1+rng.Intn(5))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(16)
		}
		emit := func(s trace.Sink) error {
			trace.Replay(tr, s)
			return nil
		}
		want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			got, err := SquareEmitParallel(emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 0, shards)
			if err != nil {
				t.Fatalf("trial %d shards %d: %v", trial, shards, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d shards %d: emitted ledger diverges", trial, shards)
			}
		}
	}
}

func TestSquareEmitParallelLeafAttribution(t *testing.T) {
	// Leaf markers landing exactly on shard boundaries must be credited to
	// the box that served the marked access, as in the serial stream.
	// Every reference ends a leaf, so any misattribution shifts a count.
	b := &trace.Builder{}
	for i := 0; i < 500; i++ {
		b.Access(int64(i % 10))
		b.EndLeaf()
	}
	tr := b.Build()
	emit := func(s trace.Sink) error {
		trace.Replay(tr, s)
		return nil
	}
	boxes := []int64{3, 5}
	want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		got, err := SquareEmitParallel(emit, int64(tr.Len()), tr.MaxBlock(), cycling(t, boxes), 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards %d: leaf attribution diverges", shards)
		}
	}
}

func TestSquareEmitParallelTotalRefsIsAdvisory(t *testing.T) {
	// A wrong totalRefs may unbalance shards but must not change output.
	rng := xrand.New(0x5b2)
	tr := randomTrace(rng, 1200, 40)
	boxes := []int64{6, 2}
	emit := func(s trace.Sink) error {
		trace.Replay(tr, s)
		return nil
	}
	want, err := PolicyRun(SquareReplayName, tr, cycling(t, boxes), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, totalRefs := range []int64{2, 100, 10_000_000} {
		got, err := SquareEmitParallel(emit, totalRefs, tr.MaxBlock(), cycling(t, boxes), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("totalRefs %d: ledger diverges", totalRefs)
		}
	}
}

// --- Completions -------------------------------------------------------------

// repeatServed is the reference answer for servedEmitRepeat: the
// repetitions of tr, each shifted to a fresh address range, replayed one
// by one (trace.Replay into a trace.OffsetSink) into an unbounded square
// replay, summing the references served by its first nBoxes boxes.
func repeatServed(t testing.TB, tr *trace.Trace, src profile.Source, nBoxes int64, reps int) int64 {
	t.Helper()
	var boxes, served int64
	q := NewSquareStream(src, 0, func(b BoxStat) {
		if boxes++; boxes <= nBoxes {
			served += b.Refs
		}
	})
	for r := 0; r < reps; r++ {
		trace.Replay(tr, trace.OffsetSink{S: q, Shift: int64(r) * (tr.MaxBlock() + 1)})
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return served
}

// checkRepeat pins servedEmitRepeat and Completions over emit (tr's
// stream) against repeatServed; it reports whether the boxes outlast the
// first repetition.
func checkRepeat(t *testing.T, trial int, tr *trace.Trace, emit func(trace.Sink) error, boxes []int64, nBoxes int64, reps int) bool {
	t.Helper()
	want := repeatServed(t, tr, cycling(t, boxes), nBoxes, reps)
	got, err := servedEmitRepeat(emit, tr.MaxBlock(), cycling(t, boxes), nBoxes, reps)
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	if got != want {
		t.Fatalf("trial %d: served %d, want %d", trial, got, want)
	}
	runs, err := Completions(emit, cycling(t, boxes), nBoxes, reps)
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	if runs != want/int64(tr.Len()) {
		t.Fatalf("trial %d: %d completions, want %d", trial, runs, want/int64(tr.Len()))
	}
	return want > int64(tr.Len())
}

// TestServedRepeatParallelMatchesSerial drives a materialized trace through
// its own Emit method.
func TestServedRepeatParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(0x5c1)
	multi := 0 // trials whose boxes outlast the first repetition
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(rng, 30+rng.Intn(800), 1+rng.Int63n(48))
		boxes := make([]int64, 1+rng.Intn(4))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(48)
		}
		nBoxes := 1 + rng.Int63n(200)
		reps := 1 + rng.Intn(6)
		if checkRepeat(t, trial, tr, tr.Emit, boxes, nBoxes, reps) {
			multi++
		}
	}
	if multi < 5 {
		t.Fatalf("only %d of 20 trials reached a second repetition", multi)
	}
}

// TestServedEmitRepeatParallelMatchesSerial drives a plain emit closure,
// the form a generator that never materializes its trace passes (E9,
// mmtrace -worstcase).
func TestServedEmitRepeatParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(0x5d1)
	multi := 0 // trials whose boxes outlast the first repetition
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(rng, 30+rng.Intn(800), 1+rng.Int63n(48))
		boxes := make([]int64, 1+rng.Intn(4))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(48)
		}
		nBoxes := 1 + rng.Int63n(200)
		reps := 1 + rng.Intn(6)
		emit := func(s trace.Sink) error {
			trace.Replay(tr, s)
			return nil
		}
		if checkRepeat(t, trial, tr, emit, boxes, nBoxes, reps) {
			multi++
		}
	}
	if multi < 5 {
		t.Fatalf("only %d of 20 trials reached a second repetition", multi)
	}
}

// TestCompletionsEdgeCases: fewer than one repetition is rejected, no
// boxes complete nothing without emitting, boxes that outlast the
// workload complete every repetition, and a workload with no references
// is an error rather than a division by zero.
func TestCompletionsEdgeCases(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5}, nil)
	for _, reps := range []int{0, -3} {
		if _, err := Completions(tr.Emit, cycling(t, []int64{6}), 1, reps); err == nil {
			t.Errorf("reps=%d accepted", reps)
		}
	}
	emitted := false
	noted := func(s trace.Sink) error {
		emitted = true
		return tr.Emit(s)
	}
	if runs, err := Completions(noted, cycling(t, []int64{6}), 0, 3); err != nil || runs != 0 || emitted {
		t.Errorf("nBoxes 0: %d completions, %v, emitted %v; want 0, nil, false", runs, err, emitted)
	}
	if runs, err := Completions(tr.Emit, cycling(t, []int64{1000}), 1, 4); err != nil || runs != 4 {
		t.Errorf("one box past the workload: %d completions, %v; want every one of 4", runs, err)
	}
	empty := func(trace.Sink) error { return nil }
	if _, err := Completions(empty, cycling(t, []int64{6}), 1, 2); err == nil {
		t.Error("a workload with no references was accepted")
	}
}

// --- Box errors -------------------------------------------------------------

// TestBoxSizeErrorParity: an invalid box is reported with the cursor's one
// text whether it leads or turns up mid-stream, and the references served
// before it still count — through a SquareStream, SquareRunFrom (which
// validates every box up front, so even an empty suffix reports it),
// servedEmitRepeat and Completions.
func TestBoxSizeErrorParity(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5}, nil)
	for _, c := range []struct {
		boxes  []int64
		served int64
		msg    string
	}{
		{[]int64{0}, 0, "paging: box source produced size 0"},
		{[]int64{3, -1}, 3, "paging: box source produced size -1"},
	} {
		var served int64
		q := NewSquareStream(cycling(t, c.boxes), int64(len(c.boxes)), func(b BoxStat) { served += b.Refs })
		trace.Replay(tr, q)
		if err := q.Finish(); err == nil || err.Error() != c.msg {
			t.Fatalf("boxes %v: error %v, want %q", c.boxes, err, c.msg)
		}
		if served != c.served {
			t.Fatalf("boxes %v: served %d, want %d", c.boxes, served, c.served)
		}
		for _, start := range []int{0, tr.Len()} {
			if _, err := SquareRunFrom(tr, start, c.boxes); err == nil || err.Error() != c.msg {
				t.Fatalf("boxes %v: SquareRunFrom from %d: error %v, want %q", c.boxes, start, err, c.msg)
			}
		}
		served, err := servedEmitRepeat(tr.Emit, tr.MaxBlock(), cycling(t, c.boxes), int64(len(c.boxes)), 2)
		if err == nil || err.Error() != c.msg || served != c.served {
			t.Fatalf("boxes %v: servedEmitRepeat = %d, %v; want %d, %q", c.boxes, served, err, c.served, c.msg)
		}
		if _, err := Completions(tr.Emit, cycling(t, c.boxes), int64(len(c.boxes)), 2); err == nil || err.Error() != c.msg {
			t.Fatalf("boxes %v: Completions error %v, want %q", c.boxes, err, c.msg)
		}
	}
}

func TestSquareStreamEndLeafAfterInvalidBoxDoesNotPanic(t *testing.T) {
	// A generator emits Access then EndLeaf; if the access was rejected
	// (invalid first box), the marker has no box to credit and must be
	// ignored, not panic with "EndLeaf before any access".
	q := NewSquareStream(profile.FuncSource(func() int64 { return 0 }), 0, discardBoxes)
	q.Access(1)
	q.EndLeaf() // must not panic
	if err := q.Finish(); err == nil {
		t.Fatal("expected invalid-box error")
	}
}

func TestSquareStreamEndLeafAfterMaxBoxesDoesNotMutateClosedBox(t *testing.T) {
	// maxBoxes trips when box 2 would open; the EndLeaf for the rejected
	// access must neither panic nor retroactively credit box 1's ledger.
	src, err := profile.NewBoxesSource([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	var stats []BoxStat
	q := NewSquareStream(src, 1, collect(&stats))
	q.Access(0)
	q.EndLeaf()
	q.Access(1) // needs a second box: exceeds maxBoxes
	q.EndLeaf() // must not panic, must not touch the closed box
	if err := q.Finish(); err == nil {
		t.Fatal("expected maxBoxes error")
	}
	if len(stats) != 1 || stats[0].Leaves != 1 {
		t.Fatalf("closed box mutated after error: %+v", stats)
	}
}

func TestSquareStreamEndLeafBeforeAccessStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndLeaf before any access on a healthy stream must panic")
		}
	}()
	src, _ := profile.NewBoxesSource([]int64{4})
	NewSquareStream(src, 0, discardBoxes).EndLeaf()
}

// --- Early stop (regression) ------------------------------------------------

// countingSink counts the accesses a replay actually delivers to the
// wrapped sink, delegating its Stopper signal.
type countingSink struct {
	trace.Sink
	delivered *int
}

func (c countingSink) Access(block int64) {
	*c.delivered++
	c.Sink.Access(block)
}

func (c countingSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		c.Access(lo + i)
	}
}

func (c countingSink) Stopped() bool { return c.Sink.(trace.Stopper).Stopped() }

// TestReplayRangeHaltsAtFinisherBoundary: at the boundary where a
// box-limited square replay's boxes finish, the replay feeding it stops.
func TestReplayRangeHaltsAtFinisherBoundary(t *testing.T) {
	// 100k-reference trace, boxes that serve ~3 references: the replay
	// must stop within a ref or two of the boundary instead of streaming
	// the whole suffix into a stream that ignores it.
	b := &trace.Builder{}
	for i := 0; i < 100_000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	var delivered int
	var served int64
	q := NewSquareStream(cycling(t, []int64{3}), 1, func(b BoxStat) { served += b.Refs })
	trace.ReplayRange(tr, countingSink{Sink: q, delivered: &delivered}, 0, tr.Len())
	var limit boxLimitError
	if !q.Stopped() || !errors.As(q.Finish(), &limit) {
		t.Fatal("stream should have exhausted its boxes")
	}
	if delivered > int(served)+2 {
		t.Fatalf("replay delivered %d references past a boundary at %d", delivered, served)
	}
}

// TestServedEmitRepeatHaltsAtBoxLimit: once the boxes run out mid
// repetition, neither that repetition nor the later ones keep streaming.
func TestServedEmitRepeatHaltsAtBoxLimit(t *testing.T) {
	b := &trace.Builder{}
	for i := 0; i < 1000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	var delivered int
	emit := func(s trace.Sink) error {
		trace.Replay(tr, countingSink{Sink: s, delivered: &delivered})
		return nil
	}
	served, err := servedEmitRepeat(emit, tr.MaxBlock(), cycling(t, []int64{5}), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if served != 5 || delivered > int(served)+2 {
		t.Fatalf("repeat replay delivered %d references past a boundary at %d", delivered, served)
	}
}

// --- DefaultShards ----------------------------------------------------------

func TestDefaultShardsStaysSerialWithoutIdleWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	engine.SetSharedWorkers(1)
	if got := DefaultShards(); got != 1 {
		t.Fatalf("DefaultShards() on a single-worker pool = %d, want 1", got)
	}
	engine.SetSharedWorkers(4)
	if got := DefaultShards(); got != 8 {
		t.Fatalf("DefaultShards() on an idle 4-worker pool = %d, want 8", got)
	}
}

// --- Fuzz -------------------------------------------------------------------

// FuzzParallelMatchesSerial drives random traces and cycled box profiles
// through SquareEmitParallel at a fuzzed shard count and through
// servedEmitRepeat, and demands bit-identical results against the serial
// references (a SquareStream replay; repeatServed's repetitions).
// The corpus inputs parameterize deterministic generators, so every
// failure replays exactly.
func FuzzParallelMatchesSerial(f *testing.F) {
	f.Add(uint64(1), 100, int64(8), int64(5), 3, int64(40), 2)
	f.Add(uint64(2), 2000, int64(64), int64(17), 8, int64(9), 5)
	f.Add(uint64(3), 17, int64(1), int64(1), 16, int64(1), 1)
	f.Fuzz(func(t *testing.T, seed uint64, refs int, blockRange, maxBox int64, shards int, nBoxes int64, reps int) {
		if refs < 1 || refs > 5000 || blockRange < 1 || blockRange > 512 ||
			maxBox < 1 || maxBox > 64 || shards < 1 || shards > 32 ||
			nBoxes < 1 || nBoxes > 500 || reps < 1 || reps > 8 {
			t.Skip()
		}
		rng := xrand.New(seed)
		tr := randomTrace(rng, refs, blockRange)
		boxes := make([]int64, 1+rng.Intn(6))
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(maxBox)
		}
		srcOf := func() profile.ForkableSource {
			s, err := profile.NewBoxesSource(boxes)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}

		wantStats, wantErr := PolicyRun(SquareReplayName, tr, srcOf(), 0)
		gotStats, gotErr := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), srcOf(), 0, shards)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("SquareEmitParallel error mismatch: %v vs %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("SquareEmitParallel(shards=%d) ledger diverges from the serial square replay", shards)
		}

		want := repeatServed(t, tr, srcOf(), nBoxes, reps)
		served, err := servedEmitRepeat(tr.Emit, tr.MaxBlock(), srcOf(), nBoxes, reps)
		if err != nil {
			t.Fatal(err)
		}
		if served != want {
			t.Fatalf("servedEmitRepeat = %d, want %d", served, want)
		}
	})
}
