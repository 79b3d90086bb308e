package paging

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// Property tests over random traces and random capacity schedules,
// motivated by Reineke & Salinger's smoothness results for paging: the
// dynamic-capacity simulators must respect the classical structural
// invariants no matter how the capacity moves under them.

// localTrace draws n references from a universe of the given size, with a
// 50% chance of re-referencing one of the last few blocks so that hits,
// evictions and re-fetches all actually occur.
func localTrace(src *xrand.Source, n int, universe int64) *trace.Trace {
	var b trace.Builder
	recent := make([]int64, 0, 8)
	for i := 0; i < n; i++ {
		var blk int64
		if len(recent) > 0 && src.Float64() < 0.5 {
			blk = recent[src.Intn(len(recent))]
		} else {
			blk = src.Int63n(universe)
		}
		b.Access(blk)
		if len(recent) < cap(recent) {
			recent = append(recent, blk)
		} else {
			recent[i%cap(recent)] = blk
		}
	}
	return b.Build()
}

// randomSchedule returns capacity-change events: at each trace position
// with probability p, a fresh capacity in [1, maxCap].
func randomSchedule(src *xrand.Source, n int, maxCap int64) map[int]int64 {
	sched := make(map[int]int64)
	for i := 0; i < n; i++ {
		if src.Float64() < 0.05 {
			sched[i] = 1 + src.Int63n(maxCap)
		}
	}
	return sched
}

// resident returns the cache's content set by walking the intrusive
// recency list (test-only peek).
func resident(l *LRU) map[int64]bool {
	set := make(map[int64]bool, l.Len())
	for s := l.ends[lruList].head; s != nilNode; s = l.nodes[s].next {
		set[int64(s)] = true
	}
	return set
}

// TestLRUInclusionProperty: with the smaller cache's capacity pointwise at
// most the larger's, the smaller cache's contents are a subset of the
// larger's after every access — LRU's inclusion (stack) property, extended
// to dynamically changing capacities.
func TestLRUInclusionProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(42, "inclusion", int64(trial)))
		tr := localTrace(src, 400, 48)
		sched := randomSchedule(src, tr.Len(), 24)

		small, err := NewLRU(1 + src.Int63n(12))
		if err != nil {
			t.Fatal(err)
		}
		big, err := NewLRU(small.Capacity() + src.Int63n(16))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			if c, ok := sched[i]; ok {
				extra := src.Int63n(16)
				if err := small.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
				if err := big.SetCapacity(c + extra); err != nil {
					t.Fatal(err)
				}
			}
			small.Access(tr.Block(i))
			big.Access(tr.Block(i))
			inBig := resident(big)
			for blk := range resident(small) {
				if !inBig[blk] {
					t.Fatalf("trial %d, access %d: block %d resident at capacity %d but not at %d",
						trial, i, blk, small.Capacity(), big.Capacity())
				}
			}
		}
	}
}

// TestLRURecencyPrefixInvariant: an LRU cache under any capacity schedule
// holds exactly its Len() most recently used distinct blocks — the
// structural fact behind the inclusion property.
func TestLRURecencyPrefixInvariant(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		src := xrand.New(xrand.Split(43, "prefix", int64(trial)))
		tr := localTrace(src, 300, 32)
		sched := randomSchedule(src, tr.Len(), 16)

		l, err := NewLRU(1 + src.Int63n(16))
		if err != nil {
			t.Fatal(err)
		}
		var recency []int64 // most recent first, distinct blocks
		touch := func(blk int64) {
			for i, b := range recency {
				if b == blk {
					recency = append(recency[:i], recency[i+1:]...)
					break
				}
			}
			recency = append([]int64{blk}, recency...)
		}
		for i := 0; i < tr.Len(); i++ {
			if c, ok := sched[i]; ok {
				if err := l.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
			}
			l.Access(tr.Block(i))
			touch(tr.Block(i))
			set := resident(l)
			if int64(len(set)) != l.Len() {
				t.Fatalf("trial %d: node map size %d != Len %d", trial, len(set), l.Len())
			}
			for j := int64(0); j < l.Len(); j++ {
				if !set[recency[j]] {
					t.Fatalf("trial %d, access %d: %d-th most recent block %d not resident (len %d)",
						trial, i, j, recency[j], l.Len())
				}
			}
		}
	}
}

// TestHitsPlusMissesAccountsEveryAccess: for LRU and FIFO under random
// capacity schedules, every access is either a hit or a miss — no access is
// dropped or double-counted, whatever the capacity does.
func TestHitsPlusMissesAccountsEveryAccess(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(44, "conservation", int64(trial)))
		tr := localTrace(src, 500, 64)
		sched := randomSchedule(src, tr.Len(), 32)

		l, err := NewLRU(1 + src.Int63n(24))
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFIFO(1 + src.Int63n(24))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			if c, ok := sched[i]; ok {
				if err := l.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
				if err := f.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
			}
			l.Access(tr.Block(i))
			f.Access(tr.Block(i))
		}
		if got := l.Hits() + l.Misses(); got != int64(tr.Len()) {
			t.Errorf("trial %d: LRU hits %d + misses %d = %d, want %d",
				trial, l.Hits(), l.Misses(), got, tr.Len())
		}
		if got := f.Hits() + f.Misses(); got != int64(tr.Len()) {
			t.Errorf("trial %d: FIFO hits %d + misses %d = %d, want %d",
				trial, f.Hits(), f.Misses(), got, tr.Len())
		}
	}
}

// TestOPTNeverWorseThanLRU: Belady's policy is offline-optimal, so at equal
// fixed capacity its miss count is a lower bound on LRU's.
func TestOPTNeverWorseThanLRU(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(45, "opt-vs-lru", int64(trial)))
		tr := localTrace(src, 400, 40)
		for _, capacity := range []int64{1, 2, 3, 5, 8, 13, 21, 40} {
			opt, err := RunPolicyFixed(OPTReplayName, tr, capacity)
			if err != nil {
				t.Fatal(err)
			}
			lru, err := RunPolicyFixed("lru", tr, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if opt > lru {
				t.Errorf("trial %d, capacity %d: OPT %d misses > LRU %d misses",
					trial, capacity, opt, lru)
			}
			// Both must at least fetch every distinct block once.
			if distinct := countDistinct(tr); opt < int64(distinct) {
				t.Errorf("trial %d, capacity %d: OPT %d misses < %d distinct blocks",
					trial, capacity, opt, distinct)
			}
		}
	}
}

func countDistinct(tr *trace.Trace) int {
	seen := make(map[int64]bool)
	for i := 0; i < tr.Len(); i++ {
		seen[tr.Block(i)] = true
	}
	return len(seen)
}

// TestShrinkEvictsOverflowImmediately: shrinking the capacity brings the
// resident count down to the new bound right away, evicting in LRU order,
// and never touches the hit/miss counters.
func TestShrinkEvictsOverflowImmediately(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(46, "shrink", int64(trial)))
		tr := localTrace(src, 200, 64)

		l, err := NewLRU(32)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tr.Len(); i++ {
			l.Access(tr.Block(i))
		}
		before := resident(l)
		hits, misses := l.Hits(), l.Misses()
		newCap := 1 + src.Int63n(l.Len())
		if err := l.SetCapacity(newCap); err != nil {
			t.Fatal(err)
		}
		if l.Len() > newCap {
			t.Fatalf("trial %d: %d resident after shrink to %d", trial, l.Len(), newCap)
		}
		if l.Len() != min64(int64(len(before)), newCap) {
			t.Errorf("trial %d: shrink to %d left %d resident, want %d",
				trial, newCap, l.Len(), min64(int64(len(before)), newCap))
		}
		if l.Hits() != hits || l.Misses() != misses {
			t.Errorf("trial %d: shrink moved counters (%d/%d -> %d/%d)",
				trial, hits, misses, l.Hits(), l.Misses())
		}
		// Survivors must all have been resident before.
		after := resident(l)
		for blk := range after {
			if !before[blk] {
				t.Errorf("trial %d: block %d appeared out of nowhere after shrink", trial, blk)
			}
		}
		// And a re-grow must not resurrect anything.
		if err := l.SetCapacity(64); err != nil {
			t.Fatal(err)
		}
		if l.Len() != int64(len(after)) {
			t.Errorf("trial %d: growing capacity changed residency %d -> %d",
				trial, len(after), l.Len())
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
