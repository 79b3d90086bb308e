package sorting

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestMergeSortKnown(t *testing.T) {
	cases := [][]int64{
		{},
		{1},
		{2, 1},
		{3, 1, 2},
		{5, 4, 3, 2, 1},
		{1, 1, 1},
		{7, 3, 7, 1, 3},
	}
	for _, in := range cases {
		out := MergeSort(in)
		if !IsSorted(out) {
			t.Errorf("MergeSort(%v) = %v not sorted", in, out)
		}
		if len(out) != len(in) {
			t.Errorf("length changed: %v -> %v", in, out)
		}
	}
}

func TestMergeSortDoesNotMutateInput(t *testing.T) {
	in := []int64{3, 1, 2}
	_ = MergeSort(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("input mutated")
	}
}

func TestMergeSortMatchesStdlib(t *testing.T) {
	src := xrand.New(41)
	for _, n := range []int{10, 100, 1000, 4096} {
		in := RandomSlice(n, 1000, src)
		got := MergeSort(in)
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

// Property: output sorted, same multiset (checked via sum and length plus
// sorted-equality with stdlib).
func TestMergeSortProperty(t *testing.T) {
	check := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		got := MergeSort(in)
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMergeSortValidation(t *testing.T) {
	if _, err := materialize(EmitMergeSort, 12, 4); err == nil {
		t.Error("non-power accepted")
	}
	if _, err := materialize(EmitMergeSort, 4, 4); err == nil {
		t.Error("below base accepted")
	}
	if _, err := materialize(EmitMergeSort, 64, 0); err == nil {
		t.Error("block 0 accepted")
	}
}

func TestTraceMergeSortShape(t *testing.T) {
	tr, err := materialize(EmitMergeSort, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2^levels leaves, levels = log2(256/8) = 5.
	if tr.Leaves() != 32 {
		t.Errorf("leaves = %d, want 32", tr.Leaves())
	}
	// Footprint: array + buffer = 2n words = 2·256/4 = 128 blocks.
	if got := tr.DistinctBlocks(); got != 128 {
		t.Errorf("distinct = %d, want 128", got)
	}
}

func TestWorstCaseProfileShape(t *testing.T) {
	if _, err := WorstCaseProfile(12, 4); err == nil {
		t.Error("non-power accepted")
	}
	if _, err := WorstCaseProfile(64, 0); err == nil {
		t.Error("block 0 accepted")
	}
	p, err := WorstCaseProfile(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Recursive structure: 2^levels leaf boxes (size 2) and merge boxes of
	// size 2·m/4 per level; levels = log2(64/8) = 3 → 8 leaves, 7 merges.
	if p.Len() != 15 {
		t.Errorf("boxes = %d, want 15", p.Len())
	}
	h := p.SizeHistogram()
	if h[2] != 8 { // leaf boxes: ceil(8/4) = 2
		t.Errorf("leaf boxes %d, want 8 (histogram %v)", h[2], h)
	}
	if h[32] != 1 { // top merge: 2·64/4
		t.Errorf("top merge boxes %d, want 1 (histogram %v)", h[32], h)
	}
}

func TestIsSortedEdge(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]int64{5}) {
		t.Error("trivial slices not sorted")
	}
	if IsSorted([]int64{2, 1}) {
		t.Error("descending pair reported sorted")
	}
}

// materialize buffers one of this package's emitters into a trace.
func materialize(emit func(int, int64, trace.Sink) error, size int, bw int64) (*trace.Trace, error) {
	return trace.Materialize(func(s trace.Sink) error { return emit(size, bw, s) })
}
