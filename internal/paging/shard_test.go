package paging

import (
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
	// ledger as the serial kernel; the planner hits it and falls back.
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

// --- ServedEmitRepeat --------------------------------------------------------

// repeatServed is the reference answer for ServedEmitRepeat: the shifted
// repetitions of tr replayed by trace.ReplayRepeat into one finisher.
func repeatServed(t testing.TB, tr *trace.Trace, src profile.Source, nBoxes int64, reps int, stride int64) int64 {
	t.Helper()
	f := NewSquareFinisher(src, nBoxes)
	f.Reserve(tr.MaxBlock())
	trace.ReplayRepeat(tr, f, reps, stride)
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return f.Served()
}

// TestServedEmitRepeatParallelSmallStrideFallsBack: with stride <=
// maxBlock the repetitions overlap in address space, so a later
// repetition can hit blocks an earlier one left resident in the same box.
// The count must still match the replayed repetitions exactly.
func TestServedEmitRepeatParallelSmallStrideFallsBack(t *testing.T) {
	rng := xrand.New(0x5c2)
	tr := randomTrace(rng, 600, 48)
	boxes := []int64{5, 40}
	nBoxes, reps := int64(40), 4
	for _, stride := range []int64{0, 1, tr.MaxBlock()} {
		want := repeatServed(t, tr, cycling(t, boxes), nBoxes, reps, stride)
		got, err := ServedEmitRepeat(tr.Emit, tr.MaxBlock(), cycling(t, boxes), nBoxes, reps, stride)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("stride %d: served %d, want %d", stride, got, want)
		}
	}
}

// TestServedRepeatParallelMatchesSerial drives a materialized trace through
// its own Emit method, the form the worst-case example passes.
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
		stride := tr.MaxBlock() + 1

		want := repeatServed(t, tr, cycling(t, boxes), nBoxes, reps, stride)
		got, err := ServedEmitRepeat(tr.Emit, tr.MaxBlock(), cycling(t, boxes), nBoxes, reps, stride)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: served %d, want %d", trial, got, want)
		}
		if want > int64(tr.Len()) {
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
		stride := tr.MaxBlock() + 1
		emit := func(s trace.Sink) error {
			trace.Replay(tr, s)
			return nil
		}

		want := repeatServed(t, tr, cycling(t, boxes), nBoxes, reps, stride)
		got, err := ServedEmitRepeat(emit, tr.MaxBlock(), cycling(t, boxes), nBoxes, reps, stride)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: served %d, want %d", trial, got, want)
		}
		if want > int64(tr.Len()) {
			multi++
		}
	}
	if multi < 5 {
		t.Fatalf("only %d of 20 trials reached a second repetition", multi)
	}
}

// --- SquareFinisher ---------------------------------------------------------

// TestSquareFinisherErrorParity: an invalid box is reported whether it
// leads (validated eagerly, even before any access) or turns up
// mid-stream, with the same text, and the references served before it
// still count — directly, through SquareRunFrom and through
// ServedEmitRepeat.
func TestSquareFinisherErrorParity(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5}, nil)
	for _, c := range []struct {
		boxes  []int64
		served int64
		msg    string
	}{
		{[]int64{0}, 0, "paging: box size 0 invalid"},
		{[]int64{3, -1}, 3, "paging: box size -1 invalid"},
	} {
		f := NewSquareFinisher(cycling(t, c.boxes), int64(len(c.boxes)))
		if c.served == 0 && f.Err() == nil {
			t.Fatalf("boxes %v: invalid leading box not reported before any access", c.boxes)
		}
		trace.Replay(tr, f)
		if f.Err() == nil || f.Err().Error() != c.msg {
			t.Fatalf("boxes %v: error %v, want %q", c.boxes, f.Err(), c.msg)
		}
		if f.Served() != c.served {
			t.Fatalf("boxes %v: served %d, want %d", c.boxes, f.Served(), c.served)
		}
		if _, err := SquareRunFrom(tr, 0, c.boxes); err == nil || err.Error() != c.msg {
			t.Fatalf("boxes %v: SquareRunFrom error %v, want %q", c.boxes, err, c.msg)
		}
		served, err := ServedEmitRepeat(tr.Emit, tr.MaxBlock(), cycling(t, c.boxes), int64(len(c.boxes)), 2, tr.MaxBlock()+1)
		if err == nil || err.Error() != c.msg || served != c.served {
			t.Fatalf("boxes %v: ServedEmitRepeat = %d, %v; want %d, %q", c.boxes, served, err, c.served, c.msg)
		}
	}
}

func TestSquareStreamEndLeafAfterInvalidBoxDoesNotPanic(t *testing.T) {
	// A generator emits Access then EndLeaf; if the access was rejected
	// (invalid first box), the marker has no box to credit and must be
	// ignored, not panic with "EndLeaf before any access".
	q := NewSquareStream(profile.FuncSource(func() int64 { return 0 }), 0)
	q.Access(1)
	q.EndLeaf() // must not panic
	if _, err := q.Finish(); err == nil {
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
	q := NewSquareStream(src, 1)
	q.Access(0)
	q.EndLeaf()
	q.Access(1) // needs a second box: exceeds maxBoxes
	q.EndLeaf() // must not panic, must not touch the closed box
	stats, err := q.Finish()
	if err == nil {
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
	NewSquareStream(src, 0).EndLeaf()
}

// --- Early stop (regression) ------------------------------------------------

// countingFinisher counts how many accesses a replay actually delivers to
// the wrapped finisher, delegating the Stopper signal.
type countingFinisher struct {
	*SquareFinisher
	delivered int
}

func (c *countingFinisher) Access(block int64) {
	c.delivered++
	c.SquareFinisher.Access(block)
}

func (c *countingFinisher) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		c.Access(lo + i)
	}
}

func TestReplayRangeHaltsAtFinisherBoundary(t *testing.T) {
	// 100k-reference trace, boxes that serve ~3 references: the replay
	// must stop within a ref or two of the boundary instead of streaming
	// the whole suffix into a finisher that ignores it.
	b := &trace.Builder{}
	for i := 0; i < 100_000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	f := &countingFinisher{SquareFinisher: NewSquareFinisher(cycling(t, []int64{3}), 1)}
	trace.ReplayRange(tr, f, 0, tr.Len())
	if !f.Stopped() || f.Err() != nil {
		t.Fatal("finisher should have exhausted its boxes")
	}
	if f.delivered > int(f.Served())+2 {
		t.Fatalf("replay delivered %d references past a boundary at %d", f.delivered, f.Served())
	}
}

func TestReplayRepeatHaltsAtFinisherBoundary(t *testing.T) {
	b := &trace.Builder{}
	for i := 0; i < 1000; i++ {
		b.Access(int64(i))
	}
	tr := b.Build()
	f := &countingFinisher{SquareFinisher: NewSquareFinisher(cycling(t, []int64{5}), 1)}
	trace.ReplayRepeat(tr, f, 50, tr.MaxBlock()+1)
	if f.delivered > int(f.Served())+2 {
		t.Fatalf("repeat replay delivered %d references past a boundary at %d", f.delivered, f.Served())
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
// ServedEmitRepeat, and demands bit-identical results against the serial
// references (a SquareStream replay; trace.ReplayRepeat into a finisher).
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

		stride := tr.MaxBlock() + 1
		want := repeatServed(t, tr, srcOf(), nBoxes, reps, stride)
		served, err := ServedEmitRepeat(tr.Emit, tr.MaxBlock(), srcOf(), nBoxes, reps, stride)
		if err != nil {
			t.Fatal(err)
		}
		if served != want {
			t.Fatalf("ServedEmitRepeat = %d, want %d", served, want)
		}
	})
}
