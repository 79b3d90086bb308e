package paging

import (
	"testing"
	"testing/quick"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func buildTrace(blocks []int64, leafAt map[int]bool) *trace.Trace {
	b := &trace.Builder{}
	for i, blk := range blocks {
		b.Access(blk)
		if leafAt[i] {
			b.EndLeaf()
		}
	}
	return b.Build()
}

func randomTrace(src *xrand.Source, refs int, blockRange int64) *trace.Trace {
	b := &trace.Builder{}
	for i := 0; i < refs; i++ {
		b.Access(src.Int63n(blockRange))
		if src.Float64() < 0.1 {
			b.EndLeaf()
		}
	}
	return b.Build()
}

// --- Square replay (PolicyRun "square") -------------------------------------

func TestSquareRunServesDistinctBlocksPerBox(t *testing.T) {
	// Trace touching blocks 0..7 once each; boxes of size 4 → exactly two
	// full boxes.
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5, 6, 7}, nil)
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{4}))
	stats, err := PolicyRun(SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].IOs != 4 || stats[1].IOs != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSquareRunHitsAreFree(t *testing.T) {
	// Block 0 referenced 100 times, then block 1: a box of size 2 serves
	// everything — 2 I/Os, 101 refs.
	blocks := make([]int64, 101)
	blocks[100] = 1
	tr := buildTrace(blocks, nil)
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{2}))
	stats, err := PolicyRun(SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].IOs != 2 || stats[0].Refs != 101 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSquareRunClearsBetweenBoxes(t *testing.T) {
	// Alternating blocks 0,1,0,1 with boxes of size 1: every reference
	// misses in its own box except repeats within a box are impossible, so
	// 4 boxes.
	tr := buildTrace([]int64{0, 1, 0, 1}, nil)
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{1}))
	stats, err := PolicyRun(SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("want 4 boxes, got %d: %+v", len(stats), stats)
	}
}

func TestSquareRunLeafAttribution(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3}, map[int]bool{1: true, 3: true})
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{2}))
	stats, err := PolicyRun(SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Leaves != 1 || stats[1].Leaves != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if TotalLeaves(stats) != tr.Leaves() {
		t.Error("leaf totals disagree")
	}
}

func TestSquareRunMaxBoxesGuard(t *testing.T) {
	src2 := xrand.New(1)
	tr := randomTrace(src2, 10000, 1000)
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{1}))
	if _, err := PolicyRun(SquareReplayName, tr, src, 5); err == nil {
		t.Error("guard did not trip")
	}
}

func TestSquareRunEmptyTrace(t *testing.T) {
	stats, err := PolicyRun(SquareReplayName, (&trace.Builder{}).Build(), profile.FuncSource(func() int64 { return 1 }), 0)
	if err != nil || stats != nil {
		t.Errorf("empty trace: %v %v", stats, err)
	}
}

// Property: total I/Os of a square run are bounded by refs, total refs
// equals trace length, leaves preserved, and each box's IOs <= Size with
// only the last box partial.
func TestSquareRunInvariants(t *testing.T) {
	check := func(seed uint32, refsRaw uint16, boxRaw uint8) bool {
		src := xrand.New(uint64(seed))
		refs := int(refsRaw)%2000 + 1
		tr := randomTrace(src, refs, 64)
		boxSize := int64(boxRaw)%32 + 1
		bs, _ := profile.NewSliceSource(profile.MustNew([]int64{boxSize}))
		stats, err := PolicyRun(SquareReplayName, tr, bs, 0)
		if err != nil {
			return false
		}
		var refsServed int64
		for i, s := range stats {
			refsServed += s.Refs
			if s.IOs > s.Size {
				return false
			}
			if i < len(stats)-1 && s.IOs != s.Size {
				return false // only final box may be partial
			}
		}
		return refsServed == int64(tr.Len()) && TotalLeaves(stats) == tr.Leaves()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- SquareRunFrom & No-Catch-up --------------------------------------------

func TestSquareRunFromBasic(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3, 4, 5}, nil)
	end, err := SquareRunFrom(tr, 0, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Errorf("end = %d, want 3", end)
	}
	end, err = SquareRunFrom(tr, 2, []int64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if end != 6 {
		t.Errorf("end = %d, want 6", end)
	}
	if _, err := SquareRunFrom(tr, -1, []int64{1}); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := SquareRunFrom(tr, 0, []int64{0}); err == nil {
		t.Error("zero box accepted")
	}
}

// The No-Catch-up Lemma (Lemma 2): starting the same square sequence
// earlier never finishes later. Property-tested over random traces and
// square sequences.
func TestNoCatchupLemma(t *testing.T) {
	check := func(seed uint32, refsRaw uint16, nBoxesRaw, startRaw uint8) bool {
		src := xrand.New(uint64(seed))
		refs := int(refsRaw)%1000 + 10
		tr := randomTrace(src, refs, 40)
		nBoxes := int(nBoxesRaw)%8 + 1
		boxes := make([]int64, nBoxes)
		for i := range boxes {
			boxes[i] = 1 + src.Int63n(20)
		}
		i := int(startRaw) % refs
		iPrime := src.Intn(i + 1) // i' <= i
		endLate, err := SquareRunFrom(tr, i, boxes)
		if err != nil {
			return false
		}
		endEarly, err := SquareRunFrom(tr, iPrime, boxes)
		if err != nil {
			return false
		}
		return endEarly <= endLate
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- LRU ---------------------------------------------------------------------

func TestLRUBasics(t *testing.T) {
	l, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Access(1) {
		t.Error("cold access hit")
	}
	l.Access(2)
	if !l.Access(1) {
		t.Error("resident block missed")
	}
	l.Access(3) // evicts 2 (LRU)
	if l.Access(2) {
		t.Error("evicted block hit")
	}
	if l.Access(3) != true {
		t.Error("block 3 should be resident")
	}
	if l.Misses() != 4 || l.Hits() != 2 {
		t.Errorf("misses=%d hits=%d", l.Misses(), l.Hits())
	}
}

func TestLRUValidation(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	l, _ := NewLRU(4)
	if err := l.SetCapacity(0); err == nil {
		t.Error("SetCapacity(0) accepted")
	}
}

func TestLRUShrinkEvicts(t *testing.T) {
	l, _ := NewLRU(4)
	for b := int64(0); b < 4; b++ {
		l.Access(b)
	}
	if err := l.SetCapacity(2); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Errorf("Len after shrink = %d", l.Len())
	}
	// MRU blocks 2,3 survive.
	if !l.Access(3) || !l.Access(2) {
		t.Error("MRU blocks evicted by shrink")
	}
	if l.Access(0) {
		t.Error("LRU block survived shrink")
	}
}

func TestLRUClear(t *testing.T) {
	l, _ := NewLRU(4)
	l.Access(1)
	l.Clear()
	if l.Len() != 0 {
		t.Error("Clear left residents")
	}
	if l.Access(1) {
		t.Error("hit after Clear")
	}
}

func TestRunLRUFixedSequentialScan(t *testing.T) {
	// A sequential scan misses on every distinct block regardless of size.
	b := &trace.Builder{}
	b.AccessRange(0, 100)
	tr := b.Build()
	misses, err := RunPolicyFixed("lru", tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 100 {
		t.Errorf("misses = %d, want 100", misses)
	}
}

func TestRunLRUFixedLoopFitsCache(t *testing.T) {
	// Loop over 8 blocks 10 times: with capacity >= 8, only 8 misses.
	b := &trace.Builder{}
	for rep := 0; rep < 10; rep++ {
		b.AccessRange(0, 8)
	}
	tr := b.Build()
	misses, _ := RunPolicyFixed("lru", tr, 8)
	if misses != 8 {
		t.Errorf("fitting loop misses = %d, want 8", misses)
	}
	// With capacity 4, LRU thrashes: every access misses.
	misses, _ = RunPolicyFixed("lru", tr, 4)
	if misses != 80 {
		t.Errorf("thrashing loop misses = %d, want 80", misses)
	}
}

func TestRunLRUProfile(t *testing.T) {
	b := &trace.Builder{}
	for rep := 0; rep < 4; rep++ {
		b.AccessRange(0, 8)
	}
	tr := b.Build()
	big, _ := profile.Constant(16, 64)
	missesBig, err := RunLRUProfile(tr, big)
	if err != nil {
		t.Fatal(err)
	}
	if missesBig != 8 {
		t.Errorf("big profile misses = %d, want 8", missesBig)
	}
	small, _ := profile.Constant(4, 64)
	missesSmall, _ := RunLRUProfile(tr, small)
	if missesSmall <= missesBig {
		t.Errorf("small cache (%d misses) not worse than big (%d)", missesSmall, missesBig)
	}
	if _, err := RunLRUProfile(tr, nil); err == nil {
		t.Error("empty profile accepted")
	}
}

// --- OPT ---------------------------------------------------------------------

func TestOPTValidation(t *testing.T) {
	if _, err := RunPolicyFixed(OPTReplayName, (&trace.Builder{}).Build(), 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestOPTBeatsLRUOnLoop(t *testing.T) {
	// The classic: loop of size capacity+1. LRU misses always; OPT keeps
	// most of the loop resident.
	b := &trace.Builder{}
	for rep := 0; rep < 20; rep++ {
		b.AccessRange(0, 5)
	}
	tr := b.Build()
	lru, _ := RunPolicyFixed("lru", tr, 4)
	opt, err := RunPolicyFixed(OPTReplayName, tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lru != 100 {
		t.Errorf("LRU misses = %d, want 100", lru)
	}
	if opt >= lru/2 {
		t.Errorf("OPT misses %d not clearly better than LRU %d", opt, lru)
	}
}

// Property: OPT never misses more than LRU at the same capacity, and both
// are at least DistinctBlocks (compulsory misses).
func TestOPTOptimalityProperty(t *testing.T) {
	check := func(seed uint32, refsRaw uint16, capRaw uint8) bool {
		src := xrand.New(uint64(seed))
		refs := int(refsRaw)%1500 + 10
		tr := randomTrace(src, refs, 32)
		capacity := int64(capRaw)%16 + 1
		lru, err1 := RunPolicyFixed("lru", tr, capacity)
		opt, err2 := RunPolicyFixed(OPTReplayName, tr, capacity)
		if err1 != nil || err2 != nil {
			return false
		}
		return opt <= lru && opt >= tr.DistinctBlocks() && lru >= tr.DistinctBlocks()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
