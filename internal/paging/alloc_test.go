package paging

import (
	"testing"

	"repro/internal/xrand"
)

// Allocation regression tests: once the dense index and node pool have
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
	// Warm up: size the node pool and free list to the working set.
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

// TestSquareStreamBoundedState: the streaming square consumer's state
// depends on the block universe, not the stream length — feeding 10× more
// references of the same working set must not grow residency state.
func TestSquareStreamBoundedState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-square", 0))
	tr := localTrace(src, 1000, 64)
	q := NewSquareStream(constSource{8}, 0)
	q.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		q.Access(tr.Block(i))
	}
	if got := int64(len(q.resident)); got != tr.MaxBlock()+1 {
		t.Fatalf("residency state %d entries, want %d (max block + 1)", got, tr.MaxBlock()+1)
	}
}

// constSource is a fixed-size box source for tests.
type constSource struct{ size int64 }

func (c constSource) Next() int64 { return c.size }

// TestOptHeapZeroAllocSteadyState: once the heap's backing array has grown
// to the peak population, balanced push/pop churn reuses it.
//
//allocguard:optHeap.push
//allocguard:optHeap.pop
func TestOptHeapZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-opt", 0))
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = src.Uint64()
	}
	var h optHeap
	for _, k := range keys {
		h.push(k)
	}
	for len(h) > 0 {
		h.pop()
	}
	avg := testing.AllocsPerRun(10, func() {
		for _, k := range keys {
			h.push(k)
		}
		for len(h) > 0 {
			h.pop()
		}
	})
	if avg != 0 {
		t.Fatalf("optHeap push/pop churn allocates %.1f times per run, want 0", avg)
	}
}

// TestSquareStreamZeroAllocSteadyState: with the residency array reserved
// and a box large enough to never close, serving references allocates
// nothing. (Closing a box appends a BoxStat — amortised by box, not by
// reference — so the steady state within a box is the hot path.)
//
// allocguard:SquareStream.Access
func TestSquareStreamZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-squarestream", 0))
	tr := localTrace(src, 2000, 128)
	q := NewSquareStream(constSource{1 << 40}, 0)
	q.Reserve(tr.MaxBlock())
	q.Access(tr.Block(0)) // open the one huge box
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			q.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("SquareStream steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// TestSquareFinisherZeroAllocSteadyState: with reserved residency, serving
// references allocates nothing — including box advancement, which pulls
// the next size from the source (the finisher keeps no per-box ledger).
//
// allocguard:SquareFinisher.Access
func TestSquareFinisherZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-squarefin", 0))
	tr := localTrace(src, 2000, 128)
	f := NewSquareFinisher(constSource{8}, 1<<40)
	f.Reserve(tr.MaxBlock())
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			f.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("SquareFinisher steady-state replay allocates %.1f times per run, want 0", avg)
	}
}

// TestServedEmitRepeatAllocsIndependentOfLength: the repeated replay
// allocates per call and per repetition (the finisher, residency growth
// into each shifted address range, the OffsetSink adapter), never per
// reference — the SquareFinisher hot path stays allocation-free under
// ServedEmitRepeat, so a 10× longer base stream allocates the same.
func TestServedEmitRepeatAllocsIndependentOfLength(t *testing.T) {
	allocs := func(refs int) float64 {
		src := xrand.New(xrand.Split(50, "alloc-servedrepeat", 0))
		tr := localTrace(src, refs, 128)
		return testing.AllocsPerRun(10, func() {
			if _, err := ServedEmitRepeat(tr.Emit, 127, constSource{8}, 1<<40, 6, 128); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(20000)
	if long != short {
		t.Fatalf("ServedEmitRepeat allocates %.1f times over 2000 refs but %.1f over 20000, want equal", short, long)
	}
}

// TestPolicyStreamZeroAllocSteadyState: with the kernel reserved and a box
// large enough to never close, serving references through the live-policy
// box replay allocates nothing. (Closing a box appends a BoxStat —
// amortised by box, not by reference.)
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
		q := NewPolicyStream(p, constSource{1 << 40}, 0)
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
	}
}

// TestCacheSinkZeroAllocSteadyState: the cache adapter adds nothing on top
// of the warmed cache's own zero-allocation access.
//
// allocguard:CacheSink.Access
func TestCacheSinkZeroAllocSteadyState(t *testing.T) {
	src := xrand.New(xrand.Split(50, "alloc-cachesink", 0))
	tr := localTrace(src, 2000, 128)
	l, err := NewLRU(32)
	if err != nil {
		t.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	s := CacheSink{Cache: l}
	for i := 0; i < tr.Len(); i++ {
		s.Access(tr.Block(i))
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < tr.Len(); i++ {
			s.Access(tr.Block(i))
		}
	})
	if avg != 0 {
		t.Fatalf("CacheSink steady-state replay allocates %.1f times per run, want 0", avg)
	}
}
