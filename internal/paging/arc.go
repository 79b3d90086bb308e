package paging

import (
	"fmt"
)

// ARC is the Adaptive Replacement Cache (Megiddo & Modha), the canonical
// member of the adaptive-policy family analysed for dynamic cache sizes by
// Consuegra et al. ("Analyzing Adaptive Cache Replacement Strategies").
// Resident blocks split into a recency list T1 (seen once recently) and a
// frequency list T2 (seen at least twice); evicted blocks leave ghosts in
// B1/B2, and ghost hits steer the adaptive target p — the share of the
// cache T1 is entitled to — toward whichever list is proving useful.
//
// Layout: each block is in at most one of the four lists, so the lists
// live in one blockLists — a node per block ID holding its links and its
// list — with no maps and no steady-state allocation. Block IDs are
// assumed dense-remapped below 2^31 (the same packing assumption as the
// OPT kernel).
//
// Dynamic capacity follows the CA-model generalisation: SetCapacity clamps
// p, demotes resident overflow through the standard REPLACE rule, and trims
// the ghost lists back under the ARC invariants (|T1|+|B1| <= c, total <=
// 2c).
type ARC struct {
	blockLists // lists arcT1..arcB2, each with its MRU end at the head
	capacity   int64
	p          int64 // adaptive target size for T1, 0 <= p <= capacity
	hits       int64
	misses     int64
}

// List numbers in the ARC's blockLists.
const (
	arcT1 = uint8(iota + 1)
	arcT2
	arcB1
	arcB2
)

// NewARC returns an empty ARC with the given capacity (>= 1).
func NewARC(capacity int64) (*ARC, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: ARC capacity %d < 1", capacity)
	}
	return &ARC{blockLists: newBlockLists(), capacity: capacity}, nil
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name: "arc",
		New:  func(capacity int64) (ReplacementPolicy, error) { return NewARC(capacity) },
	})
}

// Len reports the number of resident blocks (T1 + T2; ghosts don't count).
func (a *ARC) Len() int64 { return a.ends[arcT1].size + a.ends[arcT2].size }

// Misses reports the number of accesses that required a fetch.
func (a *ARC) Misses() int64 { return a.misses }

// Hits reports the number of accesses served from cache.
func (a *ARC) Hits() int64 { return a.hits }

// Capacity reports the current capacity.
func (a *ARC) Capacity() int64 { return a.capacity }

// Target reports the adaptive target p for |T1| (exported for tests and
// diagnostics).
func (a *ARC) Target() int64 { return a.p }

// Contains reports whether block is resident without recording a hit.
func (a *ARC) Contains(block int64) bool {
	w := a.on(block)
	return w == arcT1 || w == arcT2
}

// Hit promotes a resident block to the frequency list's MRU end and
// returns true; a block that is not resident (a ghost, or out of the
// index's range) returns false untouched.
//
//lint:hotpath
func (a *ARC) Hit(block int64) bool {
	if w := a.on(block); w != arcT1 && w != arcT2 {
		return false
	}
	a.hits++
	a.moveToFront(arcT2, int32(block))
	return true
}

// Reserve pre-sizes the dense index for block IDs up to maxBlock.
func (a *ARC) Reserve(maxBlock int64) { a.reserve(maxBlock) }

// SetCapacity resizes the cache. Shrinking demotes resident overflow
// through the REPLACE rule and trims the ghost lists back under the ARC
// invariants; p is clamped into [0, capacity].
func (a *ARC) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: ARC capacity %d < 1", capacity)
	}
	a.capacity = capacity
	if a.p > capacity {
		a.p = capacity
	}
	for a.Len() > capacity {
		a.replaceOne(false)
	}
	// |T1| <= capacity now, so overflow of L1 = T1 ∪ B1 is all ghost.
	for a.ends[arcT1].size+a.ends[arcB1].size > capacity {
		a.popTail(arcB1)
	}
	for a.Len()+a.ends[arcB1].size+a.ends[arcB2].size > 2*capacity {
		if a.ends[arcB2].size > 0 {
			a.popTail(arcB2)
		} else {
			a.popTail(arcB1)
		}
	}
	return nil
}

// Clear empties the cache and the ghost lists (the square-boundary
// convention) without touching the counters; p resets with the history.
func (a *ARC) Clear() {
	a.clear()
	a.p = 0
}

// Access touches block, returning true on a hit. On a miss the block is
// fetched, adapting p on ghost hits and self-evicting through REPLACE when
// the cache is full.
//
//lint:hotpath
func (a *ARC) Access(block int64) bool {
	s := int32(block)
	switch a.on(block) {
	case arcT1, arcT2:
		a.hits++
		a.moveToFront(arcT2, s)
		return true
	case arcB1:
		// Ghost hit in B1: recency was undervalued — grow p.
		a.misses++
		a.p += maxi64(a.ends[arcB2].size/a.ends[arcB1].size, 1)
		if a.p > a.capacity {
			a.p = a.capacity
		}
		a.replace(false)
		a.unlink(s)
		a.pushFront(arcT2, s)
		return false
	case arcB2:
		// Ghost hit in B2: frequency was undervalued — shrink p.
		a.misses++
		a.p -= maxi64(a.ends[arcB1].size/a.ends[arcB2].size, 1)
		if a.p < 0 {
			a.p = 0
		}
		a.replace(true)
		a.unlink(s)
		a.pushFront(arcT2, s)
		return false
	}
	// Completely new block (ARC Case IV).
	if block >= int64(len(a.nodes)) {
		a.reserve(block)
	}
	a.misses++
	t1, b1 := a.ends[arcT1].size, a.ends[arcB1].size
	if t1+b1 >= a.capacity {
		if b1 > 0 {
			a.popTail(arcB1)
			a.replace(false)
		} else {
			// L1 is all resident: evict T1's LRU outright, no ghost (it
			// would overflow B1).
			a.popTail(arcT1)
		}
	} else if total := t1 + b1 + a.ends[arcT2].size + a.ends[arcB2].size; total >= a.capacity {
		if total >= 2*a.capacity {
			a.popTail(arcB2)
		}
		a.replace(false)
	}
	a.pushFront(arcT1, s)
	return false
}

// replace demotes resident blocks into the ghost lists until an insertion
// slot is free — the REPLACE procedure of the ARC paper, generalised to a
// loop so a freshly shrunk capacity is honoured too.
func (a *ARC) replace(inB2 bool) {
	for a.Len() >= a.capacity {
		a.replaceOne(inB2)
	}
}

// replaceOne demotes one resident block: T1's LRU to B1 when T1 exceeds its
// target p (or ties it on a B2 ghost hit), T2's LRU to B2 otherwise.
func (a *ARC) replaceOne(inB2 bool) {
	t1 := a.ends[arcT1].size
	if t1 > 0 && (t1 > a.p || (inB2 && t1 == a.p) || a.ends[arcT2].size == 0) {
		a.pushFront(arcB1, a.popTail(arcT1))
		return
	}
	a.pushFront(arcB2, a.popTail(arcT2))
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
