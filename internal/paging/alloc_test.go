package paging

import (
	"testing"

	"repro/internal/xrand"
)

// Allocation regression tests: once the dense index and FIFO's ring have
// grown to cover the working set, replaying through the array-backed
// kernels must not allocate at all. A regression here means a per-access
// allocation snuck back into the hot path. The //allocguard: markers tie
// each //lint:hotpath annotation to the AllocsPerRun measurement backing
// it; the lint suite's consistency test fails if they drift apart.

// allocguard:LRU.Access
func TestLRUZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-lru", 0))
	tr := localTrace(src, 2000, 128)
	l, err := NewLRU(32)
	if err != nil {
		t.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	// Warm up: bring the working set into the cache.
	for i := 0; i < tr.Len(); i++ {
		l.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			l.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("LRU steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:FIFO.Access
func TestFIFOZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-fifo", 0))
	tr := localTrace(src, 2000, 128)
	f, err := NewFIFO(32)
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		f.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			f.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("FIFO steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:ARC.Access
func TestARCZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-arc", 0))
	tr := localTrace(src, 2000, 128)
	a, err := NewARC(32)
	if err != nil {
		t.Fatal(err)
	}
	a.Reserve(tr.MaxBlock())
	// Warm up: populate the lists and ghost history over the working set.
	for i := 0; i < tr.Len(); i++ {
		a.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			a.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("ARC steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// allocguard:TwoQ.Access
func TestTwoQZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-2q", 0))
	tr := localTrace(src, 2000, 128)
	q, err := NewTwoQ(32)
	if err != nil {
		t.Fatal(err)
	}
	q.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		q.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			q.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("2Q steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// TestKernelHitZeroAllocSteadyState: each kernel's hit path allocates
// nothing, on hits and misses alike (including IDs outside the reserved
// index), as PolicyStream drives it: Hit first, Access only on a miss.
//
// allocguard:LRU.Hit
// allocguard:FIFO.Hit
// allocguard:ARC.Hit
// allocguard:TwoQ.Hit
func TestKernelHitZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-hit", 0))
	tr := localTrace(src, 2000, 128)
	for _, name := range PolicyNames() {
		p, err := NewReplacementPolicy(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		p.Reserve(tr.MaxBlock())
		for i := 0; i < tr.Len(); i++ {
			p.Access(tr.Block(i))
		}
		var hits int64
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < tr.Len(); i++ {
				if p.Hit(tr.Block(i)) {
					hits++
				} else {
					p.Access(tr.Block(i))
				}
				p.Hit(-1 - tr.Block(i))
				p.Hit(tr.MaxBlock() + 1 + tr.Block(i))
			}
		})
		if avg != 0 {
			t.Fatalf("%s Hit-then-Access replay allocates %.1f times per run, want 0", name, avg)
		}
		if hits == 0 {
			t.Fatalf("%s: no hit during the measured replay", name)
		}
	}
}

// TestSquareStreamBoundedState: the streaming square consumer's state
// depends on the block universe, not the stream length — feeding 10× more
// references of the same working set must not grow residency state.
func TestSquareStreamBoundedState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-square", 0))
	tr := localTrace(src, 1000, 64)
	q := NewSquareStream(constSource{8}, 0, discardBoxes)
	q.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		q.Access(tr.Block(i))
	}
	if got := int64(len(q.resident)); got != tr.MaxBlock()+1 {
		t.Fatalf("residency state %d entries, want %d (max block + 1)", got, tr.MaxBlock()+1)
	}
}

// discardBoxes is a box fold that drops every box.
func discardBoxes(BoxStat) {}

// constSource is a fixed-size box source for tests.
type constSource struct{ size int64 }

func (c constSource) Next() int64 { return c.size }

// TestOptHeapZeroAllocSteadyState: once the key array has grown to its
// peak population, push/up/pop churn reuses it. Each round re-keys every
// resident block the way a hit does in the opt replay (its key rises in
// place), then evicts the maximum keys and fills other blocks the way a
// miss does. After every operation the heap holds exactly one key per
// resident block, in heap order, with every position indexed.
//
//allocguard:optHeap.push
//allocguard:optHeap.pop
//allocguard:optHeap.up
func TestOptHeapZeroAllocSteadyState(t *testing.T) {
	const universe, resident = 96, 64
	h := newOptHeap(universe)
	live := 0
	check := func(op string) {
		if len(h.keys) != live {
			t.Fatalf("after %s: heap holds %d keys, want the %d resident blocks", op, len(h.keys), live)
		}
		indexed := 0
		for b, p := range h.pos {
			if p == optNever {
				continue
			}
			indexed++
			if uint32(h.keys[p]) != uint32(b) {
				t.Fatalf("after %s: pos[%d] = %d holds block %d", op, b, p, uint32(h.keys[p]))
			}
		}
		if indexed != live {
			t.Fatalf("after %s: %d blocks indexed, want %d", op, indexed, live)
		}
		for i := 1; i < len(h.keys); i++ {
			if h.keys[(i-1)/2] < h.keys[i] {
				t.Fatalf("after %s: key %d exceeds its parent", op, i)
			}
		}
	}
	var nu uint64
	fill := func(want int) {
		for b := 0; b < universe && live < want; b++ {
			if h.pos[b] == optNever {
				nu++
				h.push(nu<<32 | uint64(b))
				live++
				check("push")
			}
		}
	}
	churn := func() {
		for round := 0; round < 8; round++ {
			fill(resident)
			for b, p := range h.pos {
				if p != optNever {
					nu++
					h.up(int(p), nu<<32|uint64(b))
					check("up")
				}
			}
			for j := 0; j < 1+round; j++ {
				top := h.pop()
				live--
				check("pop")
				if len(h.keys) > 0 && h.keys[0] > top {
					t.Fatalf("pop returned %x below the remaining maximum %x", top, h.keys[0])
				}
			}
		}
		for len(h.keys) > 0 {
			h.pop()
			live--
			check("pop")
		}
	}
	churn()
	avg := testing.AllocsPerRun(10, churn)
	if avg != 0 {
		t.Fatalf("optHeap push/up/pop churn allocates %.1f times per run, want 0", avg)
	}
}

// TestOptRecorderZeroAllocSteadyState: a recorder pre-sized from the
// stream length and largest block, as Replay sizes it, records every
// reference without allocating.
//
// allocguard:optRecorder.Access
func TestOptRecorderZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-optrecorder", 0))
	tr := localTrace(src, 2000, 128)
	const runs = 10
	r := newOptRecorder(int64((runs+1)*tr.Len()), tr.MaxBlock())
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < tr.Len(); i++ {
			r.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("optRecorder pre-sized recording allocates %.1f times per run, want 0", avg)
	}
	if r.err != nil || len(r.rec.blocks) != (runs+1)*tr.Len() {
		t.Fatalf("recorded %d references (err %v), want %d", len(r.rec.blocks), r.err, (runs+1)*tr.Len())
	}
}

// TestSquareStreamZeroAllocSteadyState: with the residency array reserved,
// serving references allocates nothing, including closing a box and
// passing it to the fold.
//
// allocguard:SquareStream.Access
func TestSquareStreamZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-squarestream", 0))
	tr := localTrace(src, 2000, 128)
	var boxes int64
	q := NewSquareStream(constSource{8}, 0, func(BoxStat) { boxes++ })
	q.Reserve(tr.MaxBlock())
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			q.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("SquareStream steady-state replay allocates %.1f times per run, want 0", avg)
	}
	if boxes == 0 {
		t.Fatal("no box closed during the measured replay")
	}
}

// TestServedEmitRepeatAllocsIndependentOfLength: the repeated replay
// allocates per call and per repetition (the stream, residency growth
// into each shifted address range, the OffsetSink adapter), never per
// reference — the measuring pass and the SquareStream hot path stay
// allocation-free under Completions, so a 10× longer base stream
// allocates the same.
func TestServedEmitRepeatAllocsIndependentOfLength(t *testing.T) {
	allocs := func(refs int) float64 {
		src := xrand.New(xrand.Split(50, "alloc-servedrepeat", 0))
		tr := localTrace(src, refs, 128)
		return testing.AllocsPerRun(10, func() {
			if _, err := Completions(tr.Emit, constSource{8}, 1<<40, 6); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(20000)
	if long != short {
		t.Fatalf("Completions allocates %.1f times over 2000 refs but %.1f over 20000, want equal", short, long)
	}
}

// TestPolicyStreamZeroAllocSteadyState: with the kernel reserved and
// warmed, serving references through the live-policy box replay allocates
// nothing, including closing a box, resizing the kernel to the next one
// and passing the closed box to the fold.
//
// allocguard:PolicyStream.Access
func TestPolicyStreamZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-policystream", 0))
	tr := localTrace(src, 2000, 128)
	for _, name := range PolicyNames() {
		p, err := NewReplacementPolicy(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var boxes int64
		q := NewPolicyStream(p, constSource{8}, 0, func(BoxStat) { boxes++ })
		q.Reserve(tr.MaxBlock())
		for i := 0; i < tr.Len(); i++ {
			q.Access(tr.Block(i))
		}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < tr.Len(); i++ {
				q.Access(tr.Block(i))
			}
		})
		if avg != 0 {
			t.Fatalf("%s PolicyStream steady-state replay allocates %.1f times per run, want 0", name, avg)
		}
		if boxes == 0 {
			t.Fatalf("%s: no box closed during the replay", name)
		}
	}
}
