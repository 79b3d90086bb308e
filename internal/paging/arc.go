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
// Layout: each block is in at most one of the four lists, so membership is
// a dense block-indexed byte and the lists are intrusive block-indexed
// prev/next arrays — no nodes, no maps, no steady-state allocation. Block
// IDs are assumed dense-remapped below 2^31 (the same packing assumption
// as the OPT kernel).
//
// Dynamic capacity follows the CA-model generalisation: SetCapacity clamps
// p, demotes resident overflow through the standard REPLACE rule, and trims
// the ghost lists back under the ARC invariants (|T1|+|B1| <= c, total <=
// 2c).
type ARC struct {
	capacity int64
	p        int64 // adaptive target size for T1, 0 <= p <= capacity
	where    []uint8
	prev     []int32
	next     []int32
	lists    [5]arcList // indexed by arcT1..arcB2; slot arcNone unused
	hits     int64
	misses   int64
}

// List indexes for ARC.where; arcNone marks an untracked block.
const (
	arcNone = uint8(iota)
	arcT1
	arcT2
	arcB1
	arcB2
)

// arcList is one intrusive list: head is the MRU end, tail the LRU end.
type arcList struct {
	head, tail int32
	size       int64
}

// NewARC returns an empty ARC with the given capacity (>= 1).
func NewARC(capacity int64) (*ARC, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: ARC capacity %d < 1", capacity)
	}
	a := &ARC{capacity: capacity}
	for i := range a.lists {
		a.lists[i] = arcList{head: nilNode, tail: nilNode}
	}
	return a, nil
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name: "arc",
		New:  func(capacity int64) (ReplacementPolicy, error) { return NewARC(capacity) },
	})
}

// Len reports the number of resident blocks (T1 + T2; ghosts don't count).
func (a *ARC) Len() int64 { return a.lists[arcT1].size + a.lists[arcT2].size }

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
	if block < 0 || block >= int64(len(a.where)) {
		return false
	}
	w := a.where[block]
	return w == arcT1 || w == arcT2
}

// Hit promotes a resident block to the frequency list's MRU end and
// returns true; a block that is not resident (a ghost, or out of the
// index's range) returns false untouched.
//
//lint:hotpath
func (a *ARC) Hit(block int64) bool {
	if uint64(block) >= uint64(len(a.where)) {
		return false
	}
	if w := a.where[block]; w != arcT1 && w != arcT2 {
		return false
	}
	a.hits++
	a.unlink(block)
	a.pushFront(arcT2, block)
	return true
}

// Reserve pre-sizes the dense indexes for block IDs up to maxBlock.
func (a *ARC) Reserve(maxBlock int64) { a.ensure(maxBlock) }

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
	for a.lists[arcT1].size+a.lists[arcB1].size > capacity {
		a.dropTail(arcB1)
	}
	for a.Len()+a.lists[arcB1].size+a.lists[arcB2].size > 2*capacity {
		if a.lists[arcB2].size > 0 {
			a.dropTail(arcB2)
		} else {
			a.dropTail(arcB1)
		}
	}
	return nil
}

// Clear empties the cache and the ghost lists (the square-boundary
// convention) without touching the counters; p resets with the history.
func (a *ARC) Clear() {
	for li := range a.lists {
		for s := a.lists[li].head; s != nilNode; {
			nxt := a.next[s]
			a.where[s] = arcNone
			s = nxt
		}
		a.lists[li] = arcList{head: nilNode, tail: nilNode}
	}
	a.p = 0
}

// Access touches block, returning true on a hit. On a miss the block is
// fetched, adapting p on ghost hits and self-evicting through REPLACE when
// the cache is full.
//
//lint:hotpath
func (a *ARC) Access(block int64) bool {
	if a.Hit(block) {
		return true
	}
	a.ensure(block)
	switch a.where[block] {
	case arcB1:
		// Ghost hit in B1: recency was undervalued — grow p.
		a.misses++
		a.p += maxi64(a.lists[arcB2].size/a.lists[arcB1].size, 1)
		if a.p > a.capacity {
			a.p = a.capacity
		}
		a.replace(false)
		a.unlink(block)
		a.pushFront(arcT2, block)
		return false
	case arcB2:
		// Ghost hit in B2: frequency was undervalued — shrink p.
		a.misses++
		a.p -= maxi64(a.lists[arcB1].size/a.lists[arcB2].size, 1)
		if a.p < 0 {
			a.p = 0
		}
		a.replace(true)
		a.unlink(block)
		a.pushFront(arcT2, block)
		return false
	}
	// Completely new block (ARC Case IV).
	a.misses++
	if l1 := a.lists[arcT1].size + a.lists[arcB1].size; l1 >= a.capacity {
		if a.lists[arcB1].size > 0 {
			a.dropTail(arcB1)
			a.replace(false)
		} else {
			// L1 is all resident: evict T1's LRU outright, no ghost (it
			// would overflow B1).
			a.dropTail(arcT1)
		}
	} else if a.Len()+a.lists[arcB1].size+a.lists[arcB2].size >= a.capacity {
		if a.Len()+a.lists[arcB1].size+a.lists[arcB2].size >= 2*a.capacity {
			a.dropTail(arcB2)
		}
		a.replace(false)
	}
	a.pushFront(arcT1, block)
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
	t1 := a.lists[arcT1].size
	if t1 > 0 && (t1 > a.p || (inB2 && t1 == a.p) || a.lists[arcT2].size == 0) {
		lru := a.lists[arcT1].tail
		a.unlink(int64(lru))
		a.pushFront(arcB1, int64(lru))
		return
	}
	lru := a.lists[arcT2].tail
	a.unlink(int64(lru))
	a.pushFront(arcB2, int64(lru))
}

// ensure grows the dense membership and link arrays (geometrically, so
// growth cost amortises to nothing) until block is a valid index.
func (a *ARC) ensure(block int64) {
	if block < int64(len(a.where)) {
		return
	}
	n := int64(len(a.where)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric index growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grownWhere := make([]uint8, n)
	copy(grownWhere, a.where)
	a.where = grownWhere
	//lint:ignore hotpath geometric link growth, same amortisation as the membership array above
	grownPrev := make([]int32, n)
	copy(grownPrev, a.prev)
	a.prev = grownPrev
	//lint:ignore hotpath geometric link growth, same amortisation as the membership array above
	grownNext := make([]int32, n)
	copy(grownNext, a.next)
	a.next = grownNext
}

// pushFront links block at the MRU end of list li and marks membership.
func (a *ARC) pushFront(li uint8, block int64) {
	l := &a.lists[li]
	s := int32(block)
	a.prev[s] = nilNode
	a.next[s] = l.head
	if l.head != nilNode {
		a.prev[l.head] = s
	}
	l.head = s
	if l.tail == nilNode {
		l.tail = s
	}
	l.size++
	a.where[block] = li
}

// unlink removes block from whichever list holds it and clears membership.
func (a *ARC) unlink(block int64) {
	l := &a.lists[a.where[block]]
	s := int32(block)
	if p := a.prev[s]; p != nilNode {
		a.next[p] = a.next[s]
	} else {
		l.head = a.next[s]
	}
	if n := a.next[s]; n != nilNode {
		a.prev[n] = a.prev[s]
	} else {
		l.tail = a.prev[s]
	}
	l.size--
	a.where[block] = arcNone
}

// dropTail forgets the LRU entry of list li entirely.
func (a *ARC) dropTail(li uint8) {
	if t := a.lists[li].tail; t != nilNode {
		a.unlink(int64(t))
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
