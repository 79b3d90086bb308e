package paging

import (
	"fmt"

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
// Next-use positions are precomputed in a single backward pass over the
// trace using a dense last-seen array, and the farthest-in-future choice is
// a hand-rolled max-heap of packed uint64 keys (nextUse in the high 32
// bits, block in the low 32) — no interface boxing, no per-entry
// allocation. Stale heap entries are invalidated lazily: an entry is live
// iff its nextUse matches the block's current one, which is unambiguous
// because a block's successive next-use positions are distinct (the "never
// used again" sentinel n appears at most once per block). Ties can
// therefore only occur among never-used-again blocks, where the eviction
// choice cannot change the miss count.

// optNever marks "no further use"; as a next-use position it sorts after
// every real index.
const optNever = int32(-1)

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
	i := 0
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && s[l] > s[big] {
			big = l
		}
		if r < n && s[r] > s[big] {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	return top
}

// optRunBoxes replays tr through Belady's farthest-in-future choice while
// the capacity follows boxes drawn from src, mirroring PolicyStream's
// accounting: entering a box of size X resizes the cache to X (evicting
// the farthest-next-use overflow) and grants X misses of budget, and each
// leaf is credited to the box that served its last access. It is the
// clairvoyant baseline behind Replay's "opt" name, and at a constant
// profile it is fixed-capacity OPT (RunPolicyFixed).
//
// With a *changing* capacity, greedy farthest-in-future is a natural
// baseline rather than a provably optimal schedule — Belady's exchange
// argument needs a fixed capacity. Every online policy still replays
// against strictly less information, so the baseline is an honest floor in
// practice on the repository's traces.
func optRunBoxes(tr *trace.Trace, src profile.Source, maxBoxes int64) (stats []BoxStat, err error) {
	// Leaves are credited once the replay ends, on every return path, in
	// one pass over the trace: box k served references [Σ_{j<k} Refs_j,
	// Σ_{j<=k} Refs_j), so each leaf lands in the box that served its last
	// access. Kept out of the replay loop, the count costs a cheap
	// sequential scan instead of a data-dependent branch per access.
	defer func() {
		i := 0
		for k := range stats {
			for end := i + int(stats[k].Refs); i < end; i++ {
				if tr.EndsLeaf(i) {
					stats[k].Leaves++
				}
			}
		}
	}()
	n := tr.Len()
	if n == 0 {
		return nil, nil
	}
	if int64(n) >= 1<<31 || tr.MaxBlock() >= 1<<31 {
		return nil, fmt.Errorf("paging: OPT index overflow (%d refs, max block %d)", n, tr.MaxBlock())
	}

	// nextUse[i] = next position after i referencing the same block; n if
	// the block is never referenced again.
	nextUse := make([]int32, n)
	last := make([]int32, tr.MaxBlock()+1)
	for i := range last {
		last[i] = optNever
	}
	for i := n - 1; i >= 0; i-- {
		blk := tr.Block(i)
		if j := last[blk]; j != optNever {
			nextUse[i] = j
		} else {
			nextUse[i] = int32(n)
		}
		last[blk] = int32(i)
	}

	// curNext[b] = the live heap key's nextUse for resident block b, or
	// optNever when b is absent.
	curNext := last // reuse the backing array; every entry is rewritten below
	for i := range curNext {
		curNext[i] = optNever
	}

	// The current box's ledger lives in locals (boxSize, ios, and the index
	// it started at) and becomes a BoxStat when the box closes.
	var h optHeap
	var size int64
	boxSize := src.Next()
	if boxSize < 1 {
		return nil, fmt.Errorf("paging: box source produced size %d", boxSize)
	}
	var ios int64
	boxStart := 0
	for i := 0; i < n; i++ {
		blk := tr.Block(i)
		if curNext[blk] == optNever {
			// Miss: needs an I/O from the current box's budget.
			if ios == boxSize {
				// Budget exhausted: this reference belongs to the next box.
				stats = append(stats, BoxStat{Size: boxSize, IOs: ios, Refs: int64(i - boxStart)})
				if maxBoxes > 0 && int64(len(stats)) >= maxBoxes {
					return stats, fmt.Errorf("paging: run exceeded %d boxes", maxBoxes)
				}
				boxSize, ios, boxStart = src.Next(), 0, i
				if boxSize < 1 {
					return stats, fmt.Errorf("paging: box source produced size %d", boxSize)
				}
			}
			// Evict the resident blocks with the farthest valid next use
			// until the new box's capacity has room, skipping stale heap
			// entries.
			for size >= boxSize {
				if len(h) == 0 {
					return stats, fmt.Errorf("paging: OPT heap exhausted with %d resident", size)
				}
				top := h.pop()
				b := int64(uint32(top))
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
		nu := nextUse[i]
		curNext[blk] = nu
		h.push(uint64(uint32(nu))<<32 | uint64(uint32(blk)))
	}
	return append(stats, BoxStat{Size: boxSize, IOs: ios, Refs: int64(n - boxStart)}), nil
}
