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

// squareRunOracle is SquareRunFrom by brute force: each box starts with an
// empty cache and serves references until the next one would bring in a
// block beyond the box's size.
func squareRunOracle(blocks []int64, start int, boxes []int64) int {
	i := start
	for _, size := range boxes {
		seen := map[int64]bool{}
		for i < len(blocks) && (seen[blocks[i]] || int64(len(seen)) < size) {
			seen[blocks[i]] = true
			i++
		}
	}
	return i
}

// restrictedGrowth calls visit with every string of length n over labels
// 0..k-1 in which each label first appears after all smaller ones: every
// trace of n references to at most k blocks, up to relabelling.
func restrictedGrowth(n, k int, visit func([]int64)) {
	s := make([]int64, n)
	var grow func(i int, next int64)
	grow = func(i int, next int64) {
		if i == n {
			visit(s)
			return
		}
		for b := int64(0); b <= next && b < int64(k); b++ {
			s[i] = b
			grow(i+1, max(next, b+1))
		}
	}
	grow(0, 0)
}

// TestNoCatchupExhaustive checks the No-Catch-up Lemma (Lemma 2)
// exhaustively on small cases: for every trace of up to 8 references to
// at most 4 blocks (up to relabelling) and every sequence of 1–3 boxes of
// sizes 1–4, SquareRunFrom's end index never decreases as the start index
// grows, and it equals the brute-force oracle at every start. -short stops
// at 7 references.
func TestNoCatchupExhaustive(t *testing.T) {
	maxLen := 8
	if testing.Short() {
		maxLen = 7
	}
	var seqs [][]int64
	for n := 1; n <= 3; n++ {
		for code := 0; code < 1<<(2*n); code++ { // n base-4 digits
			seq := make([]int64, n)
			for i := range seq {
				seq[i] = int64(code>>(2*i)&3) + 1
			}
			seqs = append(seqs, seq)
		}
	}
	runs := 0
	for n := 0; n <= maxLen; n++ {
		restrictedGrowth(n, 4, func(blocks []int64) {
			tr := buildTrace(blocks, nil)
			for _, boxes := range seqs {
				prev := -1
				for start := 0; start <= n; start++ {
					end, err := SquareRunFrom(tr, start, boxes)
					if err != nil {
						t.Fatalf("trace %v, boxes %v, start %d: %v", blocks, boxes, start, err)
					}
					if want := squareRunOracle(blocks, start, boxes); end != want {
						t.Fatalf("trace %v, boxes %v, start %d: end %d, oracle %d", blocks, boxes, start, end, want)
					}
					if end < prev {
						t.Fatalf("trace %v, boxes %v: start %d ends at %d, start %d at %d", blocks, boxes, start-1, prev, start, end)
					}
					prev = end
					runs++
				}
			}
		})
	}
	t.Logf("%d runs", runs)
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

// sawtoothSteps materializes a sawtooth raw profile, for use as box sizes.
func sawtoothSteps(minM, maxM int64, period, length int) ([]int64, error) {
	raw, err := profile.Sawtooth(minM, maxM, period, length)
	if err != nil {
		return nil, err
	}
	return profile.Collect(raw), nil
}

func TestRunLRUProfile(t *testing.T) {
	b := &trace.Builder{}
	for rep := 0; rep < 4; rep++ {
		b.AccessRange(0, 8)
	}
	tr := b.Build()
	big, _ := profile.Constant(16, 64)
	missesBig, err := RunLRUProfile(tr.Emit, tr.MaxBlock(), big)
	if err != nil {
		t.Fatal(err)
	}
	if missesBig != 8 {
		t.Errorf("big profile misses = %d, want 8", missesBig)
	}
	small, _ := profile.Constant(4, 64)
	missesSmall, _ := RunLRUProfile(tr.Emit, tr.MaxBlock(), small)
	if missesSmall <= missesBig {
		t.Errorf("small cache (%d misses) not worse than big (%d)", missesSmall, missesBig)
	}
	if _, err := RunLRUProfile(tr.Emit, tr.MaxBlock(), profile.SliceRaw(nil)); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := RunLRUProfile(tr.Emit, tr.MaxBlock(), profile.SliceRaw([]int64{4, 4, 0, 4})); err == nil {
		t.Error("a zero capacity step accepted")
	}
}

// runLRUProfileSlice is RunLRUProfile's materialized form: the profile
// indexed by the miss count, clamped to its last step. It is the oracle
// the streamed replay is checked against.
func runLRUProfileSlice(tr *trace.Trace, m []int64) (int64, error) {
	l, err := NewLRU(m[0])
	if err != nil {
		return 0, err
	}
	for i := 0; i < tr.Len(); i++ {
		if l.Access(tr.Block(i)) {
			continue
		}
		idx := min(int(l.Misses()), len(m)-1)
		if err := l.SetCapacity(m[idx]); err != nil {
			return 0, err
		}
	}
	return l.Misses(), nil
}

// TestRunLRUProfileMatchesSlice checks the streamed replay against the
// indexed one, on profiles shorter than the miss count (the last step is
// held) and longer than a RawReader window.
func TestRunLRUProfileMatchesSlice(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(61, "lru-profile", int64(trial)))
		tr := localTrace(src, 3000, 1+src.Int63n(200))
		m := make([]int64, 1+src.Intn(6000))
		for i := range m {
			m[i] = 1 + src.Int63n(64)
		}
		want, err := runLRUProfileSlice(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunLRUProfile(tr.Emit, tr.MaxBlock(), profile.SliceRaw(m))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: streamed misses %d, indexed %d", trial, got, want)
		}
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
