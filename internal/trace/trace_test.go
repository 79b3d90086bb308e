package trace

import "testing"

func TestBuilderBasics(t *testing.T) {
	b := &Builder{}
	b.Access(3)
	b.Access(5)
	b.EndLeaf()
	b.AccessRange(10, 3)
	tr := b.Build()

	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	wantBlocks := []int64{3, 5, 10, 11, 12}
	for i, w := range wantBlocks {
		if tr.Block(i) != w {
			t.Errorf("Block(%d) = %d, want %d", i, tr.Block(i), w)
		}
	}
	if !tr.EndsLeaf(1) || tr.EndsLeaf(0) || tr.EndsLeaf(4) {
		t.Error("leaf markers wrong")
	}
	if tr.Leaves() != 1 {
		t.Errorf("Leaves = %d", tr.Leaves())
	}
	if tr.MaxBlock() != 12 {
		t.Errorf("MaxBlock = %d", tr.MaxBlock())
	}
	if tr.DistinctBlocks() != 5 {
		t.Errorf("DistinctBlocks = %d", tr.DistinctBlocks())
	}
}

func TestEndLeafIdempotent(t *testing.T) {
	b := &Builder{}
	b.Access(1)
	b.EndLeaf()
	b.EndLeaf()
	if tr := b.Build(); tr.Leaves() != 1 {
		t.Errorf("double EndLeaf counted twice: %d", tr.Leaves())
	}
}

func TestEndLeafPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EndLeaf on empty builder did not panic")
		}
	}()
	(&Builder{}).EndLeaf()
}

func TestAccessPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative block did not panic")
		}
	}()
	(&Builder{}).Access(-1)
}

func TestDistinctCountsRepeats(t *testing.T) {
	b := &Builder{}
	for i := 0; i < 10; i++ {
		b.Access(7)
	}
	b.Access(8)
	tr := b.Build()
	if tr.DistinctBlocks() != 2 {
		t.Errorf("DistinctBlocks = %d, want 2", tr.DistinctBlocks())
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := (&Builder{}).Build()
	if tr.Len() != 0 || tr.DistinctBlocks() != 0 || tr.Leaves() != 0 {
		t.Error("empty trace not empty")
	}
}
