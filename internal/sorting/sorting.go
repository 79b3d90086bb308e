// Package sorting implements two-way merge sort — the paper's footnote-3
// example of the a = b boundary: merge sort is (2,2,1)-regular in blocks
// (two half-size subproblems plus a linear merge), and with a = b, c = 1 no
// algorithm can be optimally cache-adaptive because such algorithms are
// already a Θ(log(M/B)) factor from optimal in the DAM model. The paper
// explicitly leaves a = b smoothing for future work; the traced variant
// here supplies the executable boundary case for experiment A5.
package sorting

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// MergeSort returns a sorted copy of xs using top-down two-way merge sort.
func MergeSort(xs []int64) []int64 {
	out := make([]int64, len(xs))
	copy(out, xs)
	buf := make([]int64, len(xs))
	mergeSortRec(out, buf)
	return out
}

func mergeSortRec(xs, buf []int64) {
	if len(xs) <= 1 {
		return
	}
	h := len(xs) / 2
	mergeSortRec(xs[:h], buf[:h])
	mergeSortRec(xs[h:], buf[h:])
	// Merge into buf, copy back: the linear scan.
	i, j, k := 0, h, 0
	for i < h && j < len(xs) {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			j++
		}
		k++
	}
	for i < h {
		buf[k] = xs[i]
		i++
		k++
	}
	for j < len(xs) {
		buf[k] = xs[j]
		j++
		k++
	}
	copy(xs, buf)
}

// IsSorted reports whether xs is non-decreasing.
func IsSorted(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// RandomSlice returns n values uniform in [0, bound).
func RandomSlice(n int, bound int64, src *xrand.Source) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63n(bound)
	}
	return out
}

// sortBaseLen is the traced recursion's cutoff in words.
const sortBaseLen = 8

// EmitMergeSort streams into s the block trace of merge-sorting n words
// (power of two, >= sortBaseLen) with blockWords words per block. The
// array lives at word offset 0 and the merge buffer at offset n; a
// subproblem on [off, off+m) touches its ⌈m/B⌉ array blocks and, when
// merging, the matching buffer blocks — the (2,2,1) shape in blocks.
func EmitMergeSort(n int, blockWords int64, s trace.Sink) error {
	if n < sortBaseLen || n&(n-1) != 0 {
		return fmt.Errorf("sorting: traced sort needs power-of-two length >= %d, got %d", sortBaseLen, n)
	}
	if blockWords < 1 {
		return fmt.Errorf("sorting: block size %d < 1", blockWords)
	}
	g := &sortTraceGen{s: s, bw: blockWords, bufBase: int64(n)}
	g.rec(0, int64(n))
	return nil
}

type sortTraceGen struct {
	s       trace.Sink
	bw      int64
	bufBase int64
}

func (g *sortTraceGen) touch(off, words int64) {
	first := off / g.bw
	last := (off + words - 1) / g.bw
	g.s.AccessRange(first, last-first+1)
}

func (g *sortTraceGen) rec(off, m int64) {
	if m <= sortBaseLen {
		g.touch(off, m)
		g.s.EndLeaf()
		return
	}
	h := m / 2
	g.rec(off, h)
	g.rec(off+h, h)
	// The merge: read both halves, write the buffer, copy back.
	g.touch(off, m)
	g.touch(g.bufBase+off, m)
	g.touch(off, m)
}

// WorstCaseProfile builds the adversarial profile matched to
// EmitMergeSort, Figure-1 style: recursively two copies of the half-size
// profile followed by one box the size of a merge's distinct footprint
// (array chunk + buffer chunk = 2·⌈m/B⌉ blocks); base cases get a box of
// their ⌈m/B⌉-block footprint.
func WorstCaseProfile(n int, blockWords int64) (*profile.SquareProfile, error) {
	if n < sortBaseLen || n&(n-1) != 0 {
		return nil, fmt.Errorf("sorting: profile needs power-of-two length >= %d, got %d", sortBaseLen, n)
	}
	if blockWords < 1 {
		return nil, fmt.Errorf("sorting: block size %d < 1", blockWords)
	}
	var boxes []int64
	var build func(m int64)
	build = func(m int64) {
		if m <= sortBaseLen {
			boxes = append(boxes, (m+blockWords-1)/blockWords)
			return
		}
		build(m / 2)
		build(m / 2)
		boxes = append(boxes, 2*((m+blockWords-1)/blockWords))
	}
	build(int64(n))
	return profile.New(boxes)
}
