// Package paging implements the memory/caching substrates that traces are
// replayed against.
//
// Two cache semantics matter for the paper, and each has one
// implementation:
//
//  1. Square semantics — the cache-adaptive model's square-profile
//     discretisation (SquareStream, which also counts what a finite box
//     sequence serves: Completions, SquareRunFrom). Prior work
//     (Bender et al. 2014) shows that, w.l.o.g. up to constant factors,
//     one may assume cache is cleared at the start of each square, after
//     which a square of size X serves exactly X distinct blocks: each
//     first touch of a block within a square is one I/O (one unit of
//     time), repeat touches are free, and the square ends after X I/Os.
//
//  2. Live replacement under a changing capacity — the registered kernels
//     (LRU, FIFO, ARC, 2Q; PolicyStream) and Belady's clairvoyant OPT,
//     with the box profile driving the capacity. A fixed capacity is a
//     constant profile (RunPolicyFixed). This is the classical DAM-model
//     machinery, used to validate the matrix-multiply I/O complexity
//     (experiment E11) and to measure how far live policies sit from the
//     square bound (E12, E13).
//
// Replay is the one by-name entry point over both: ReplayNames lists the
// kernels plus the reserved "opt" and "square" names.
package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// BoxStat records what one memory-profile box accomplished during a square
// run.
type BoxStat struct {
	Size   int64 // box size in blocks (= its duration in I/Os)
	IOs    int64 // I/Os actually consumed (= distinct blocks fetched; < Size only for the final box)
	Leaves int64 // base cases completed within the box
	Refs   int64 // total references served (hits + misses)
}

// SquareRunFrom replays the suffix of tr starting at reference startIdx
// against the finite square sequence boxes, and returns the index of the
// first reference NOT served (tr.Len() if the boxes finish the trace).
// This is the primitive behind the No-Catch-up Lemma check (Lemma 2):
// if boxes started at r_i finish at r_j, then started at any r_{i'} with
// i' < i they finish at some r_{j'} with j' <= j. Every box is validated
// up front, so an invalid one is reported even on an empty suffix.
func SquareRunFrom(tr *trace.Trace, startIdx int, boxes []int64) (int, error) {
	if startIdx < 0 || startIdx > tr.Len() {
		return 0, fmt.Errorf("paging: start index %d out of range", startIdx)
	}
	for _, b := range boxes {
		if b < 1 {
			return 0, boxSizeError(b)
		}
	}
	if len(boxes) == 0 {
		return startIdx, nil // no boxes serve nothing
	}
	src, err := profile.NewBoxesSource(boxes)
	if err != nil {
		return 0, err
	}
	suffix := func(s trace.Sink) error {
		trace.ReplayRange(tr, s, startIdx, tr.Len())
		return nil
	}
	served, err := servedEmitRepeat(suffix, tr.MaxBlock(), src, int64(len(boxes)), 1)
	if err != nil {
		return 0, err
	}
	return startIdx + int(served), nil
}

// TotalLeaves sums leaf completions over box stats.
func TotalLeaves(stats []BoxStat) int64 {
	var n int64
	for _, s := range stats {
		n += s.Leaves
	}
	return n
}

// TotalIOs sums I/Os over box stats.
func TotalIOs(stats []BoxStat) int64 {
	var n int64
	for _, s := range stats {
		n += s.IOs
	}
	return n
}
