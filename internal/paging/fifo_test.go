package paging

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestFIFOBasics(t *testing.T) {
	f, err := NewFIFO(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Access(1) {
		t.Error("cold access hit")
	}
	f.Access(2)
	if !f.Access(1) {
		t.Error("resident block missed")
	}
	// FIFO evicts by fetch order: 1 was fetched first, so 3 evicts 1 even
	// though 1 was just touched (the difference from LRU). Probe the
	// survivors first — probing the victim refetches it.
	f.Access(3)
	if !f.Access(2) || !f.Access(3) {
		t.Error("blocks 2 and 3 should have survived")
	}
	if f.Access(1) {
		t.Error("block 1 should have been evicted (oldest fetch)")
	}
}

func TestFIFOValidation(t *testing.T) {
	if _, err := NewFIFO(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	f, _ := NewFIFO(2)
	if err := f.SetCapacity(0); err == nil {
		t.Error("SetCapacity(0) accepted")
	}
}

func TestFIFOShrink(t *testing.T) {
	f, _ := NewFIFO(4)
	for b := int64(0); b < 4; b++ {
		f.Access(b)
	}
	if err := f.SetCapacity(2); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Errorf("Len after shrink = %d", f.Len())
	}
	// Oldest fetches (0, 1) go first.
	if f.Access(3) != true || f.Access(2) != true {
		t.Error("newest fetches evicted by shrink")
	}
}

func TestFIFORefetchedBlockNotPrematurelyEvicted(t *testing.T) {
	// Regression for the stale-entry hazard: fetch 1, evict it, refetch it;
	// the stale queue entry must not cause 1 to be evicted as "oldest".
	f, _ := NewFIFO(2)
	f.Access(1) // queue: 1
	f.Access(2) // queue: 1 2
	f.Access(3) // evicts 1; queue: 1 2 3
	f.Access(1) // evicts 2 (oldest live); refetches 1; queue: 1 2 3 1'
	// Now resident = {3, 1}. Next eviction must take 3 (older fetch), not 1.
	f.Access(4)
	if !f.Access(1) {
		t.Error("refetched block evicted via its stale queue entry")
	}
	if f.Access(3) {
		t.Error("block 3 should have been the eviction victim")
	}
}

func TestFIFOSequentialScan(t *testing.T) {
	b := &trace.Builder{}
	b.AccessRange(0, 100)
	tr := b.Build()
	misses, err := RunPolicyFixed("fifo", tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 100 {
		t.Errorf("misses = %d, want 100", misses)
	}
}

// Property: OPT <= min(LRU, FIFO) and both >= compulsory misses; counters
// are consistent.
func TestFIFOAgainstOPTProperty(t *testing.T) {
	check := func(seed uint32, refsRaw uint16, capRaw uint8) bool {
		src := xrand.New(uint64(seed))
		refs := int(refsRaw)%1200 + 10
		tr := randomTrace(src, refs, 32)
		capacity := int64(capRaw)%16 + 1
		fifo, err1 := RunPolicyFixed("fifo", tr, capacity)
		opt, err2 := RunPolicyFixed(OPTReplayName, tr, capacity)
		if err1 != nil || err2 != nil {
			return false
		}
		return opt <= fifo && fifo >= tr.DistinctBlocks() && fifo <= int64(tr.Len())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOCompactionKeepsCorrectness(t *testing.T) {
	// Exercise the queue-compaction path with a long thrashing trace.
	f, _ := NewFIFO(3)
	src := xrand.New(9)
	shadow := make(map[int64]bool)
	_ = shadow
	for i := 0; i < 200000; i++ {
		f.Access(src.Int63n(64))
		if f.Len() > 3 {
			t.Fatal("capacity exceeded")
		}
	}
	if f.Misses()+f.Hits() != 200000 {
		t.Error("counters inconsistent")
	}
}
