package paging

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// Differential tests for the kernels' Hit method: a kernel driven the way
// PolicyStream drives it (Hit, then Access only on a miss) must be
// indistinguishable, after every reference, from a twin driven through
// Contains-then-Access — same hit/miss outcome, counters, residency and
// victim. Hit on an ID the kernel cannot hold (negative, or past its dense
// index) must return false and leave the kernel untouched, index included.

// kernelIndexLen reports the length of a kernel's dense block index, so a
// test can see that Hit grew nothing.
func kernelIndexLen(t testing.TB, p ReplacementPolicy) int {
	t.Helper()
	switch k := p.(type) {
	case *LRU:
		return len(k.nodes)
	case *FIFO:
		return len(k.resident)
	case *ARC:
		return len(k.nodes)
	case *TwoQ:
		return len(k.nodes)
	}
	t.Fatalf("kernelIndexLen: unknown kernel %T", p)
	return 0
}

// hitTwins is one kernel driven through Hit and its twin driven through
// Contains, over a block universe [0, universe).
type hitTwins struct {
	name     string
	hit, ref ReplacementPolicy
	universe int64
}

func newHitTwins(t testing.TB, name string, capacity, universe int64) *hitTwins {
	t.Helper()
	hit, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &hitTwins{name: name, hit: hit, ref: ref, universe: universe}
}

// access serves blk through both drivers and checks they agree.
func (w *hitTwins) access(t testing.TB, i int, blk int64) {
	t.Helper()
	got := w.hit.Hit(blk)
	if !got && w.hit.Access(blk) {
		t.Fatalf("%s ref %d (block %d): Hit missed but Access hit", w.name, i, blk)
	}
	want := w.ref.Contains(blk)
	if w.ref.Access(blk) != want {
		t.Fatalf("%s ref %d (block %d): Access disagrees with Contains", w.name, i, blk)
	}
	if got != want {
		t.Fatalf("%s ref %d (block %d): Hit-then-Access hit=%v, Contains-then-Access %v", w.name, i, blk, got, want)
	}
	w.check(t, i)
}

// probe calls Hit on IDs no kernel can hold; each must miss and change
// nothing.
func (w *hitTwins) probe(t testing.TB, i int, salt int64) {
	t.Helper()
	idx := int64(kernelIndexLen(t, w.hit))
	for _, blk := range []int64{-1, -1 - salt, math.MinInt64, idx, idx + salt, math.MaxInt64} {
		if w.hit.Hit(blk) {
			t.Fatalf("%s ref %d: Hit(%d) reported a hit", w.name, i, blk)
		}
	}
	w.check(t, i)
}

func (w *hitTwins) setCapacity(t testing.TB, c int64) {
	t.Helper()
	if err := w.hit.SetCapacity(c); err != nil {
		t.Fatal(err)
	}
	if err := w.ref.SetCapacity(c); err != nil {
		t.Fatal(err)
	}
}

func (w *hitTwins) clear() {
	w.hit.Clear()
	w.ref.Clear()
}

// check compares everything observable about the twins.
func (w *hitTwins) check(t testing.TB, i int) {
	t.Helper()
	a, b := w.hit, w.ref
	if a.Hits() != b.Hits() || a.Misses() != b.Misses() || a.Len() != b.Len() {
		t.Fatalf("%s ref %d: hits/misses/len %d/%d/%d, twin %d/%d/%d",
			w.name, i, a.Hits(), a.Misses(), a.Len(), b.Hits(), b.Misses(), b.Len())
	}
	if la, lb := kernelIndexLen(t, a), kernelIndexLen(t, b); la != lb {
		t.Fatalf("%s ref %d: index length %d, twin %d", w.name, i, la, lb)
	}
	for blk := int64(0); blk < w.universe; blk++ {
		if a.Contains(blk) != b.Contains(blk) {
			t.Fatalf("%s ref %d: block %d resident=%v, twin %v", w.name, i, blk, a.Contains(blk), b.Contains(blk))
		}
	}
}

func TestKernelHitMatchesContainsThenAccess(t *testing.T) {
	for _, name := range PolicyNames() {
		for trial := 0; trial < 20; trial++ {
			src := xrand.New(xrand.Split(52, "hit-diff-"+name, int64(trial)))
			universe := 1 + src.Int63n(96)
			tr := localTrace(src, 600, universe)
			sched := randomSchedule(src, tr.Len(), 32)
			w := newHitTwins(t, name, 1+src.Int63n(24), universe)
			for i := 0; i < tr.Len(); i++ {
				if c, ok := sched[i]; ok {
					w.setCapacity(t, c)
				}
				if i%97 == 0 {
					w.clear()
				}
				if i%13 == 0 {
					w.probe(t, i, int64(i))
				}
				w.access(t, i, tr.Block(i))
			}
		}
	}
}

// FuzzKernelHitMatchesContainsThenAccess is the fuzz twin of
// TestKernelHitMatchesContainsThenAccess over every registered kernel.
// Each byte references block by&63; bytes >= 200 retarget the capacity
// first, and of those, multiples of 7 also Clear. Bytes divisible by 3
// probe Hit with out-of-range IDs salted by the byte before the reference.
func FuzzKernelHitMatchesContainsThenAccess(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 200, 1, 4, 5, 1}, uint8(3))
	f.Add([]byte{0, 0, 0, 255, 7, 7, 203, 63, 0, 7}, uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, c uint8) {
		capacity := int64(c%16) + 1
		for _, name := range PolicyNames() {
			w := newHitTwins(t, name, capacity, 64)
			for i, by := range data {
				if by >= 200 {
					w.setCapacity(t, int64(by%24)+1)
					if by%7 == 0 {
						w.clear()
					}
				}
				if by%3 == 0 {
					w.probe(t, i, int64(by))
				}
				w.access(t, i, int64(by&63))
			}
		}
	})
}
