package trace

import "testing"

// emitSample drives a fixed workload into any sink: 130 accesses spanning
// a few bitset words, leaf markers on every 7th access, one AccessRange,
// and a double EndLeaf to exercise idempotency.
func emitSample(s Sink) {
	for i := int64(0); i < 100; i++ {
		s.Access(i % 17)
		if i%7 == 0 {
			s.EndLeaf()
		}
	}
	s.AccessRange(40, 30)
	s.EndLeaf()
	s.EndLeaf()
}

func TestReplayRoundTrip(t *testing.T) {
	b := &Builder{}
	emitSample(b)
	tr := b.Build()

	b2 := &Builder{}
	Replay(tr, b2)
	tr2 := b2.Build()

	if tr2.Len() != tr.Len() || tr2.Leaves() != tr.Leaves() || tr2.MaxBlock() != tr.MaxBlock() {
		t.Fatalf("replay summary drifted: %v vs %v", tr2, tr)
	}
	for i := 0; i < tr.Len(); i++ {
		if tr2.Block(i) != tr.Block(i) || tr2.EndsLeaf(i) != tr.EndsLeaf(i) {
			t.Fatalf("replay diverges at %d: block %d/%d leaf %v/%v",
				i, tr2.Block(i), tr.Block(i), tr2.EndsLeaf(i), tr.EndsLeaf(i))
		}
	}
}

func TestCountingSinkMatchesBuilder(t *testing.T) {
	b := &Builder{}
	c := &CountingSink{}
	emitSample(b)
	emitSample(c)
	tr := b.Build()
	if c.Refs != int64(tr.Len()) || c.Leaves != tr.Leaves() || c.MaxBlock != tr.MaxBlock() {
		t.Fatalf("counting sink disagrees with builder: refs %d/%d leaves %d/%d max %d/%d",
			c.Refs, tr.Len(), c.Leaves, tr.Leaves(), c.MaxBlock, tr.MaxBlock())
	}
}

func TestCountingSinkEndLeafPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndLeaf on empty CountingSink did not panic")
		}
	}()
	(&CountingSink{}).EndLeaf()
}

func TestOffsetSink(t *testing.T) {
	b := &Builder{}
	o := OffsetSink{S: b, Shift: 1000}
	o.Access(3)
	o.EndLeaf()
	o.AccessRange(10, 2)
	tr := b.Build()
	want := []int64{1003, 1010, 1011}
	for i, w := range want {
		if tr.Block(i) != w {
			t.Errorf("Block(%d) = %d, want %d", i, tr.Block(i), w)
		}
	}
	if !tr.EndsLeaf(0) || tr.Leaves() != 1 {
		t.Error("leaf marker not forwarded")
	}
}

func TestReplayRange(t *testing.T) {
	b := &Builder{}
	for i := int64(0); i < 10; i++ {
		b.Access(i)
		if i == 4 || i == 7 {
			b.EndLeaf()
		}
	}
	tr := b.Build()

	c := &CountingSink{}
	ReplayRange(tr, c, 3, 8)
	if c.Refs != 5 || c.Leaves != 2 || c.MaxBlock != 7 {
		t.Fatalf("ReplayRange window wrong: refs=%d leaves=%d max=%d", c.Refs, c.Leaves, c.MaxBlock)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range window did not panic")
		}
	}()
	ReplayRange(tr, c, 5, 11)
}

// TestBitsetWordBoundaries drives leaf markers across the packed-word
// boundary positions (63, 64, 127, 128) where shift/index bugs hide.
func TestBitsetWordBoundaries(t *testing.T) {
	b := &Builder{}
	marks := map[int]bool{0: true, 62: true, 63: true, 64: true, 127: true, 128: true, 200: true}
	for i := 0; i < 256; i++ {
		b.Access(int64(i))
		if marks[i] {
			b.EndLeaf()
		}
	}
	tr := b.Build()
	var got int64
	for i := 0; i < tr.Len(); i++ {
		if tr.EndsLeaf(i) != marks[i] {
			t.Fatalf("EndsLeaf(%d) = %v", i, tr.EndsLeaf(i))
		}
		if tr.EndsLeaf(i) {
			got++
		}
	}
	if got != tr.Leaves() || got != int64(len(marks)) {
		t.Fatalf("leaf count %d, Leaves() %d, want %d", got, tr.Leaves(), len(marks))
	}
}
