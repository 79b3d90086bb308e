package paging

import (
	"fmt"

	"repro/internal/trace"
)

// This file computes whole fault curves — the fixed-capacity miss count at
// every capacity up to a bound — in one pass over a stream, for the two
// stack algorithms in the repository (Mattson, Gecsei, Slutz and Traiger,
// "Evaluation techniques for storage hierarchies", 1970). A stack
// algorithm's cache of capacity c always holds the top c entries of one
// priority stack, so a reference at stack depth d hits at every capacity
// c >= d and misses below it: one pass that records each reference's depth
// yields faults[c] for every c. LRU's stack is recency order (move to
// front); OPT's orders by next use, and a reference carries the displaced
// entries down, keeping at each depth the sooner-used of the carried entry
// and the one found there. Truncating the stack at the largest capacity
// of interest leaves the entries above it exact, so a curve up to
// maxCapacity costs O(refs × maxCapacity) time and one allocation.
//
// FIFO, ARC and 2Q are not stack algorithms (their Belady anomalies are
// the point of measuring them), so their curves take one replay per
// capacity (RunKernelFixed).

// newCurve carves a curve of maxCapacity+1 counters and a stack of
// maxCapacity entries from one allocation.
func newCurve(maxCapacity int64) (hits, stack []int64, err error) {
	if maxCapacity < 1 {
		return nil, nil, fmt.Errorf("paging: fault curve capacity %d < 1", maxCapacity)
	}
	buf := make([]int64, 2*maxCapacity+1)
	return buf[: maxCapacity+1 : maxCapacity+1], buf[maxCapacity+1:], nil
}

// hitsToFaults turns per-depth hit counts into the fault curve in place:
// faults[c] = refs − (hits at depths 1..c).
func hitsToFaults(curve []int64, refs int64) []int64 {
	faults := refs
	for c := range curve {
		faults -= curve[c]
		curve[c] = faults
	}
	return curve
}

// LRUCurve returns fixed-capacity LRU's fault curve over tr: faults[c] is
// the miss count of an LRU of capacity c replaying tr from empty, for
// every c in [0, maxCapacity] (faults[0] is tr.Len(): capacity 0 serves
// nothing). It equals RunPolicyFixed("lru", tr, c) at every c.
func LRUCurve(tr *trace.Trace, maxCapacity int64) ([]int64, error) {
	curve, stack, err := newCurve(maxCapacity)
	if err != nil {
		return nil, err
	}
	lruStackDepths(tr, stack, curve)
	return hitsToFaults(curve, int64(tr.Len())), nil
}

// lruStackDepths replays tr through a move-to-front stack truncated at
// len(stack) entries, counting in hits[d] the references found at depth d
// (1-based). One pass both finds the block and shifts the entries above
// it down: each slot takes the entry carried from the slot above.
//
//lint:hotpath
func lruStackDepths(tr *trace.Trace, stack, hits []int64) {
	depth := 0
	for i := 0; i < tr.Len(); i++ {
		blk := tr.Block(i)
		carry := blk
		j := 0
		for ; j < depth; j++ {
			s := stack[j]
			stack[j] = carry
			if s == blk {
				break
			}
			carry = s
		}
		if j < depth {
			hits[j+1]++
		} else if depth < len(stack) {
			stack[depth] = carry
			depth++
		}
	}
}

// Curve returns fixed-capacity OPT's fault curve over the recording:
// faults[c] is Fixed(c) for every c in [1, maxCapacity], and faults[0] is
// the reference count.
func (r *OPTRecording) Curve(maxCapacity int64) ([]int64, error) {
	curve, stack, err := newCurve(maxCapacity)
	if err != nil {
		return nil, err
	}
	r.stackDepths(stack, curve)
	return hitsToFaults(curve, int64(len(r.blocks))), nil
}

// stackDepths runs Mattson et al.'s OPT priority stack over the recording,
// truncated at len(stack) entries, counting in hits[d] the references
// found at depth d (1-based). An entry is its block's next-use position,
// so the block referenced at position i is the entry equal to i, and a
// smaller entry is a higher priority. The referenced block takes the top
// with its new next use; the old top is carried down, and at each depth
// the sooner-used of the carried entry and the resident one stays while
// the later one is carried on, until the carry fills the referenced
// block's old slot (a hit) or falls off the bottom (a miss: at full depth
// the deepest cache evicts it, else the stack grows by one).
//
//lint:hotpath
func (r *OPTRecording) stackDepths(stack, hits []int64) {
	depth := 0
next:
	for i, nu := range r.nextUse {
		pos := int64(i)
		if depth == 0 {
			stack[0] = int64(nu)
			depth = 1
			continue
		}
		carry := stack[0]
		stack[0] = int64(nu)
		if carry == pos {
			hits[1]++
			continue
		}
		for j := 1; j < depth; j++ {
			s := stack[j]
			if s == pos {
				stack[j] = carry
				hits[j+1]++
				continue next
			}
			if s > carry {
				stack[j], carry = carry, s
			}
		}
		if depth < len(stack) {
			stack[depth] = carry
			depth++
		}
	}
}
