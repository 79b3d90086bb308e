package paging

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file implements Belady's OPT (farthest-in-future) replacement, the
// one clairvoyant replay behind both the "opt" box-profile replay and
// fixed-capacity OPT (a constant profile). At fixed capacity OPT gives the
// offline-optimal miss count, which the DAM-validation experiment uses to
// confirm that LRU's constant factor on our traces is benign (the
// classical 2-competitiveness with capacity augmentation shows up
// clearly).
//
// The replay records its stream once (optRecorder) and builds the next-use
// index in the same forward pass. The farthest-in-future choice is a
// hand-rolled max-heap of packed uint64 keys (nextUse in the high 32 bits,
// block in the low 32) — no interface boxing, no per-entry allocation.
// Every reference pushes its block's new key, and an entry is live iff its
// nextUse matches the block's current one. That is unambiguous because a
// block's successive next-use positions are distinct (the "never used
// again" sentinel appears at most once per block), so live keys are
// unique and ties can only occur among never-used-again blocks, where the
// eviction choice cannot change the miss count. Stale entries are skipped
// when popped, and once they outnumber the resident set the heap is
// compacted to its live keys, so it stays O(resident) instead of growing
// with the trace.

const (
	// optNever marks a block with no live heap key (not resident).
	optNever = int32(-1)
	// optNoNext is the next use of a reference whose block is never used
	// again; it sorts after every real position.
	optNoNext = int32(math.MaxInt32)
)

// optHeap is a max-heap of packed (nextUse<<32 | block) keys.
type optHeap []uint64

//lint:hotpath
func (h *optHeap) push(x uint64) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] >= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

//lint:hotpath
func (h *optHeap) pop() uint64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.down(0)
	return top
}

// down sifts the key at i down to its place.
func (s optHeap) down(i int) {
	n := len(s)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s[l] > s[big] {
			big = l
		}
		if r < n && s[r] > s[big] {
			big = r
		}
		if big == i {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}

// compact drops the stale keys in place and rebuilds the heap from the live
// ones — one per resident block, the key whose nextUse is the block's
// curNext. Live keys are unique, so the order in which they pop, and with
// it every eviction, is unchanged.
//
//lint:hotpath
func (h *optHeap) compact(curNext []int32) {
	s := *h
	k := 0
	for _, x := range s {
		if curNext[uint32(x)] == int32(x>>32) {
			s[k] = x
			k++
		}
	}
	s = s[:k]
	for i := k/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	*h = s
}

// optRecorder is the trace.Sink the opt replay records its stream into: an
// int32 block and an int32 next use per reference, plus one leaf bit. Next
// uses are filled forward — reference i to block b sets
// nextUse[last[b]] = i — so the index is complete when the stream ends.
type optRecorder struct {
	blocks   []int32
	nextUse  []int32 // position of the block's next reference, or optNoNext
	leafBits []uint64
	last     []int32 // last[b] = position of b's latest reference, or optNever
	err      error
}

// newOptRecorder returns a recorder pre-sized for totalRefs references to
// blocks up to maxBlock (either may be an estimate; -1 if unknown).
func newOptRecorder(totalRefs, maxBlock int64) *optRecorder {
	r := &optRecorder{}
	if totalRefs > 0 {
		r.blocks = make([]int32, 0, totalRefs)
		r.nextUse = make([]int32, 0, totalRefs)
		r.leafBits = make([]uint64, 0, (totalRefs+63)/64)
	}
	if maxBlock >= 0 && maxBlock <= math.MaxInt32 {
		r.growLast(maxBlock)
	}
	return r
}

// Access records one reference and links the block's previous reference
// to it. Positions and blocks must fit the heap key's 32-bit halves.
//
//lint:hotpath
func (r *optRecorder) Access(block int64) {
	if r.err != nil {
		return
	}
	i := len(r.blocks)
	if i >= int(optNoNext) || block > math.MaxInt32 {
		//lint:ignore hotpath error path: the recording is dead after this, one allocation to say why is fine
		r.err = fmt.Errorf("paging: OPT index overflow (%d refs, block %d)", i+1, block)
		return
	}
	if block >= int64(len(r.last)) {
		r.growLast(block)
	}
	if j := r.last[block]; j != optNever {
		r.nextUse[j] = int32(i)
	}
	r.last[block] = int32(i)
	if i&63 == 0 {
		r.leafBits = append(r.leafBits, 0)
	}
	r.blocks = append(r.blocks, int32(block))
	r.nextUse = append(r.nextUse, optNoNext)
}

// growLast extends last to cover block, marking the new entries unseen.
func (r *optRecorder) growLast(block int64) {
	n := int64(len(r.last)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric growth amortises to O(1) per access, and the maxBlock hint pre-sizes it away
	grown := make([]int32, n)
	copy(grown, r.last)
	for k := len(r.last); k < len(grown); k++ {
		grown[k] = optNever
	}
	r.last = grown
}

// AccessRange records blocks [lo, lo+count) in order.
func (r *optRecorder) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		r.Access(lo + i)
	}
}

// EndLeaf marks the most recent reference as completing a base case.
func (r *optRecorder) EndLeaf() {
	if r.err != nil {
		return
	}
	i := len(r.blocks) - 1
	if i < 0 {
		panic("paging: EndLeaf before any access")
	}
	r.leafBits[i>>6] |= 1 << (uint(i) & 63)
}

// Stopped reports whether the recording has failed, so emitters stop
// feeding it.
func (r *optRecorder) Stopped() bool { return r.err != nil }

// leaves counts the leaf bits at positions [lo, hi).
func (r *optRecorder) leaves(lo, hi int) int64 {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if first == last {
		return int64(bits.OnesCount64(r.leafBits[first] & loMask & hiMask))
	}
	n := bits.OnesCount64(r.leafBits[first]&loMask) + bits.OnesCount64(r.leafBits[last]&hiMask)
	for _, w := range r.leafBits[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

var (
	_ trace.Sink    = (*optRecorder)(nil)
	_ trace.Stopper = (*optRecorder)(nil)
)

// optRunBoxes replays a recorded stream through Belady's farthest-in-future
// choice while the capacity follows boxes drawn from src, mirroring
// PolicyStream's accounting: entering a box of size X resizes the cache to
// X (evicting the farthest-next-use overflow) and grants X misses of
// budget, and each leaf is credited to the box that served its last
// access. Each box is passed to fold as it closes. It is the clairvoyant
// baseline behind Replay's "opt" name, and at a constant profile it is
// fixed-capacity OPT (RunPolicyFixed).
//
// With a *changing* capacity, greedy farthest-in-future is a natural
// baseline rather than a provably optimal schedule — Belady's exchange
// argument needs a fixed capacity. Every online policy still replays
// against strictly less information, so the baseline is an honest floor in
// practice on the repository's traces.
func optRunBoxes(rec *optRecorder, src profile.Source, maxBoxes int64, fold func(BoxStat)) error {
	n := len(rec.blocks)
	if n == 0 {
		return nil
	}
	// curNext[b] = the live heap key's nextUse for resident block b, or
	// optNever when b is absent. The recording is done with last, so its
	// backing array is reused.
	curNext := rec.last
	for i := range curNext {
		curNext[i] = optNever
	}

	// The current box's ledger lives in locals (boxSize, ios, and the index
	// it started at) and is folded when the box closes; its leaves are the
	// leaf bits over the references it served.
	var h optHeap
	var size, closed int64
	boxSize := src.Next()
	if boxSize < 1 {
		return fmt.Errorf("paging: box source produced size %d", boxSize)
	}
	var ios int64
	boxStart := 0
	closeBox := func(end int) {
		fold(BoxStat{Size: boxSize, IOs: ios, Leaves: rec.leaves(boxStart, end), Refs: int64(end - boxStart)})
	}
	for i, blk := range rec.blocks {
		if curNext[blk] == optNever {
			// Miss: needs an I/O from the current box's budget.
			if ios == boxSize {
				// Budget exhausted: this reference belongs to the next box.
				closeBox(i)
				closed++
				if maxBoxes > 0 && closed >= maxBoxes {
					return fmt.Errorf("paging: run exceeded %d boxes", maxBoxes)
				}
				boxSize, ios, boxStart = src.Next(), 0, i
				if boxSize < 1 {
					return fmt.Errorf("paging: box source produced size %d", boxSize)
				}
			}
			// Evict the resident blocks with the farthest valid next use
			// until the new box's capacity has room, skipping stale heap
			// entries.
			for size >= boxSize {
				if len(h) == 0 {
					return fmt.Errorf("paging: OPT heap exhausted with %d resident", size)
				}
				top := h.pop()
				b := uint32(top)
				if curNext[b] != int32(top>>32) {
					continue // stale entry
				}
				curNext[b] = optNever
				size--
			}
			size++
			ios++
		}
		// Hit or fill: (re)key the block by its next use.
		nu := rec.nextUse[i]
		curNext[blk] = nu
		h.push(uint64(uint32(nu))<<32 | uint64(uint32(blk)))
		if len(h) > 2*int(size)+64 {
			h.compact(curNext)
		}
	}
	closeBox(n)
	return nil
}
