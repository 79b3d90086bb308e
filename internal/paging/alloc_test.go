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

// TestOptHeapZeroAllocSteadyState: once the heap's backing array has grown
// to its peak population, push/pop churn reuses it, and so does the
// compaction the churn triggers. Each round re-keys every resident block,
// leaving its old key stale the way a hit does in the opt replay.
//
//allocguard:optHeap.push
//allocguard:optHeap.pop
//allocguard:optHeap.compact
func TestOptHeapZeroAllocSteadyState(t *testing.T) {
	const resident = 64
	curNext := make([]int32, resident)
	var h optHeap
	var nu int32
	compactions := 0
	churn := func() {
		for round := 0; round < 8; round++ {
			for b := range curNext {
				nu++
				curNext[b] = nu
				h.push(uint64(uint32(nu))<<32 | uint64(b))
				if len(h) > 2*resident+64 {
					h.compact(curNext)
					compactions++
					if len(h) != resident {
						t.Fatalf("compaction kept %d keys, want the %d live ones", len(h), resident)
					}
				}
			}
		}
		for len(h) > 0 {
			h.pop()
		}
	}
	churn()
	avg := testing.AllocsPerRun(10, churn)
	if avg != 0 {
		t.Fatalf("optHeap push/pop/compact churn allocates %.1f times per run, want 0", avg)
	}
	if compactions == 0 {
		t.Fatal("churn never crossed the compaction threshold")
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
	if r.err != nil || len(r.blocks) != (runs+1)*tr.Len() {
		t.Fatalf("recorded %d references (err %v), want %d", len(r.blocks), r.err, (runs+1)*tr.Len())
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
