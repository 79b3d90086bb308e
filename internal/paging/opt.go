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
// The replay records its stream once (optRecorder, into an OPTRecording)
// and builds the next-use index in the same forward pass. The recording is
// read-only afterwards, so any number of replays can share it. The
// farthest-in-future choice is an indexed max-heap of packed uint64 keys
// (nextUse in the high 32 bits, block in the low 32) holding exactly one
// key per resident block, with a per-block position array — no interface
// boxing, no per-entry allocation, no stale keys. A hit raises the block's
// key in place: its old key's nextUse is the current position, the least
// live key, and its new one is larger, so the key only sifts up. A miss
// pops the maximum until the box has room, then inserts. A block's
// successive next-use positions are distinct (the "never used again"
// sentinel appears at most once per block), so live keys are unique, ties
// can only occur among never-used-again blocks (where the eviction choice
// cannot change the miss count), and the pop order is fully determined.

const (
	// optNever marks a block with no heap key (not resident) or, while
	// recording, a block not yet referenced.
	optNever = int32(-1)
	// optNoNext is the next use of a reference whose block is never used
	// again; it sorts after every real position.
	optNoNext = int32(math.MaxInt32)
)

// optHeap is an indexed max-heap of packed (nextUse<<32 | block) keys, one
// per resident block; pos[b] is block b's index in keys, or optNever when b
// is not resident.
type optHeap struct {
	keys []uint64
	pos  []int32
}

// newOptHeap returns an empty heap over blocks [0, universe).
func newOptHeap(universe int) *optHeap {
	h := &optHeap{pos: make([]int32, universe)}
	for i := range h.pos {
		h.pos[i] = optNever
	}
	return h
}

// push inserts the key of a block that is not resident.
//
//lint:hotpath
func (h *optHeap) push(x uint64) {
	h.keys = append(h.keys, x)
	h.up(len(h.keys)-1, x)
}

// pop removes the maximum key and marks its block non-resident.
//
//lint:hotpath
func (h *optHeap) pop() uint64 {
	k := h.keys
	top := k[0]
	h.pos[uint32(top)] = optNever
	n := len(k) - 1
	last := k[n]
	h.keys = k[:n]
	if n > 0 {
		h.down(0, last)
	}
	return top
}

// up places key x at index i and sifts it towards the root. A hit calls it
// directly to raise its block's key in place: x replaces the smaller key
// of the same block at i.
//
//lint:hotpath
func (h *optHeap) up(i int, x uint64) {
	k := h.keys
	for i > 0 {
		p := (i - 1) / 2
		if k[p] >= x {
			break
		}
		k[i] = k[p]
		h.pos[uint32(k[i])] = int32(i)
		i = p
	}
	k[i] = x
	h.pos[uint32(x)] = int32(i)
}

// down places key x at index i and sifts it towards the leaves.
func (h *optHeap) down(i int, x uint64) {
	k := h.keys
	n := len(k)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && k[r] > k[c] {
			c = r
		}
		if k[c] <= x {
			break
		}
		k[i] = k[c]
		h.pos[uint32(k[i])] = int32(i)
		i = c
	}
	k[i] = x
	h.pos[uint32(x)] = int32(i)
}

// OPTRecording is a reference stream recorded for Belady's OPT: an int32
// block and an int32 next use per reference, plus one leaf bit. It is
// read-only once recorded, so replays over it may run concurrently: each
// allocates its own heap.
type OPTRecording struct {
	blocks   []int32
	nextUse  []int32 // position of the block's next reference, or optNoNext
	leafBits []uint64
	universe int // every recorded block is below it
}

// RecordOPT records a generated stream for OPT replays; emit, totalRefs and
// maxBlock are as for Replay. It refuses streams longer than 2^28
// references before recording anything.
func RecordOPT(emit func(trace.Sink) error, totalRefs, maxBlock int64) (*OPTRecording, error) {
	if totalRefs > optMaxRefs {
		return nil, fmt.Errorf("paging: opt replay of %d references is too large to materialize (ceiling %d)", totalRefs, optMaxRefs)
	}
	r := newOptRecorder(totalRefs, maxBlock)
	if err := emit(r); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	rec := r.rec
	rec.universe = len(r.last)
	return &rec, nil
}

// Fixed returns fixed-capacity OPT's miss count over the recording: the
// box replay at a constant profile, whose I/Os are exactly its misses.
func (r *OPTRecording) Fixed(capacity int64) (int64, error) {
	if capacity < 1 {
		return 0, fmt.Errorf("paging: OPT capacity %d < 1", capacity)
	}
	var ios int64
	src := profile.FuncSource(func() int64 { return capacity })
	err := r.Replay(src, 0, func(s BoxStat) { ios += s.IOs })
	return ios, err
}

// optRecorder is the trace.Sink an OPTRecording is recorded through. Next
// uses are filled forward — reference i to block b sets
// nextUse[last[b]] = i — so the index is complete when the stream ends.
type optRecorder struct {
	rec  OPTRecording
	last []int32 // last[b] = position of b's latest reference, or optNever
	err  error
}

// newOptRecorder returns a recorder pre-sized for totalRefs references to
// blocks up to maxBlock (either may be an estimate; -1 if unknown).
func newOptRecorder(totalRefs, maxBlock int64) *optRecorder {
	r := &optRecorder{}
	if totalRefs > 0 {
		r.rec.blocks = make([]int32, 0, totalRefs)
		r.rec.nextUse = make([]int32, 0, totalRefs)
		r.rec.leafBits = make([]uint64, 0, (totalRefs+63)/64)
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
	i := len(r.rec.blocks)
	if i >= int(optNoNext) || block > math.MaxInt32 {
		//lint:ignore hotpath error path: the recording is dead after this, one allocation to say why is fine
		r.err = fmt.Errorf("paging: OPT index overflow (%d refs, block %d)", i+1, block)
		return
	}
	if block >= int64(len(r.last)) {
		r.growLast(block)
	}
	if j := r.last[block]; j != optNever {
		r.rec.nextUse[j] = int32(i)
	}
	r.last[block] = int32(i)
	if i&63 == 0 {
		r.rec.leafBits = append(r.rec.leafBits, 0)
	}
	r.rec.blocks = append(r.rec.blocks, int32(block))
	r.rec.nextUse = append(r.rec.nextUse, optNoNext)
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
	i := len(r.rec.blocks) - 1
	if i < 0 {
		panic("paging: EndLeaf before any access")
	}
	r.rec.leafBits[i>>6] |= 1 << (uint(i) & 63)
}

// Stopped reports whether the recording has failed, so emitters stop
// feeding it.
func (r *optRecorder) Stopped() bool { return r.err != nil }

// leaves counts the leaf bits at positions [lo, hi).
func (r *OPTRecording) leaves(lo, hi int) int64 {
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

// Replay runs the recorded stream through Belady's farthest-in-future
// choice while the capacity follows boxes drawn from src, mirroring
// PolicyStream's accounting: entering a box of size X resizes the cache to
// X (evicting the farthest-next-use overflow) and grants X misses of
// budget, and each leaf is credited to the box that served its last
// access. Each box is passed to fold as it closes; maxBoxes guards
// against pathological stalls (0 = unbounded). It is the clairvoyant
// baseline behind the package Replay's "opt" name, and at a constant
// profile it is fixed-capacity OPT (Fixed). A caller replaying one stream
// under many profiles records it once (RecordOPT) and calls Replay per
// profile, concurrently if it likes: the recording is only read.
//
// With a *changing* capacity, greedy farthest-in-future is a natural
// baseline rather than a provably optimal schedule — Belady's exchange
// argument needs a fixed capacity. Every online policy still replays
// against strictly less information, so the baseline is an honest floor in
// practice on the repository's traces.
func (r *OPTRecording) Replay(src profile.Source, maxBoxes int64, fold func(BoxStat)) error {
	n := len(r.blocks)
	if n == 0 {
		return nil
	}
	// The heap is this run's own, so runs sharing r never write to it.
	h := newOptHeap(r.universe)

	// The current box's ledger lives in locals (boxSize, ios, and the index
	// it started at) and is folded when the box closes; its leaves are the
	// leaf bits over the references it served.
	boxes := boxCursor{src: src, maxBoxes: maxBoxes}
	boxSize, err := boxes.first()
	if err != nil {
		return err
	}
	var ios int64
	boxStart := 0
	closeBox := func(end int) {
		fold(BoxStat{Size: boxSize, IOs: ios, Leaves: r.leaves(boxStart, end), Refs: int64(end - boxStart)})
	}
	for i, blk := range r.blocks {
		key := uint64(uint32(r.nextUse[i]))<<32 | uint64(uint32(blk))
		if p := h.pos[blk]; p != optNever {
			// Hit: re-key the block by its next use.
			h.up(int(p), key)
			continue
		}
		// Miss: needs an I/O from the current box's budget.
		if ios == boxSize {
			// Budget exhausted: this reference belongs to the next box.
			closeBox(i)
			if boxSize, err = boxes.next(); err != nil {
				return err
			}
			ios, boxStart = 0, i
		}
		// Evict the resident blocks with the farthest next use until the
		// box's capacity has room, then fill.
		for int64(len(h.keys)) >= boxSize {
			h.pop()
		}
		h.push(key)
		ios++
	}
	closeBox(n)
	return nil
}
