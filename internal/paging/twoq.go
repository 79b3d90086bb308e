package paging

import (
	"fmt"
)

// TwoQ is the full version of the 2Q replacement policy (Johnson & Shasha,
// VLDB '94) — the scan-resistant alternative to ARC in the adaptive-policy
// family. New blocks enter a small FIFO probation queue A1in; blocks
// evicted from A1in leave ID-only ghosts in A1out; a reference while in
// A1out is the "seen twice, and not just in a correlated burst" signal that
// promotes the block to the main LRU list Am. One-shot scans wash through
// A1in without ever displacing the hot set in Am.
//
// Layout matches the ARC kernel: a dense block-indexed membership byte plus
// intrusive prev/next arrays, three lists (A1in FIFO, A1out ghost FIFO, Am
// LRU), no steady-state allocation, block IDs dense-remapped below 2^31.
//
// Tuning follows the paper's recommendation with the fixed fractions made
// dynamic so capacity changes are honoured: A1in is entitled to
// max(1, Len()/4) slots (equal to the classic Kin = c/4 whenever the cache
// is full) and A1out remembers max(1, capacity/2) ghosts. At
// UnboundedCapacity the kernel never self-evicts, so A1out stays empty and
// the policy degrades to the honest two-queue sLRU analogue: Victim drains
// the probation FIFO before the main list, and Remove is a full forget (no
// ghost — the owning cache recycles IDs, so ID-keyed ghosts would be
// spurious).
type TwoQ struct {
	capacity int64
	where    []uint8
	prev     []int32
	next     []int32
	lists    [3]arcList // indexed by twoQA1in/twoQA1out/twoQAm - 1
	hits     int64
	misses   int64
}

// List indexes for TwoQ.where; twoQNone marks an untracked block.
const (
	twoQNone = uint8(iota)
	twoQA1in
	twoQA1out
	twoQAm
)

// NewTwoQ returns an empty 2Q cache with the given capacity (>= 1).
func NewTwoQ(capacity int64) (*TwoQ, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: 2Q capacity %d < 1", capacity)
	}
	q := &TwoQ{capacity: capacity}
	for i := range q.lists {
		q.lists[i] = arcList{head: nilNode, tail: nilNode}
	}
	return q, nil
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name:    "2q",
		Summary: "two-queue: FIFO probation A1in + ghost A1out gating promotion into the main LRU Am",
		New:     func(capacity int64) (ReplacementPolicy, error) { return NewTwoQ(capacity) },
	})
}

func (q *TwoQ) list(li uint8) *arcList { return &q.lists[li-1] }

// Len reports the number of resident blocks (A1in + Am; ghosts don't count).
func (q *TwoQ) Len() int64 { return q.lists[twoQA1in-1].size + q.lists[twoQAm-1].size }

// Misses reports the number of accesses that required a fetch.
func (q *TwoQ) Misses() int64 { return q.misses }

// Hits reports the number of accesses served from cache.
func (q *TwoQ) Hits() int64 { return q.hits }

// Capacity reports the current capacity.
func (q *TwoQ) Capacity() int64 { return q.capacity }

// Contains reports whether block is resident without recording a hit.
func (q *TwoQ) Contains(block int64) bool {
	if block < 0 || block >= int64(len(q.where)) {
		return false
	}
	w := q.where[block]
	return w == twoQA1in || w == twoQAm
}

// Reserve pre-sizes the dense indexes for block IDs up to maxBlock.
func (q *TwoQ) Reserve(maxBlock int64) { q.ensure(maxBlock) }

// kinDyn is A1in's slot entitlement: a quarter of the *current* occupancy,
// at least one. While the cache is full this equals the classic Kin = c/4;
// tying it to occupancy instead of capacity keeps the rule meaningful in
// external-bound mode, where capacity is unbounded.
func (q *TwoQ) kinDyn() int64 {
	k := q.Len() / 4
	if k < 1 {
		k = 1
	}
	return k
}

// kout is A1out's ghost budget: half the capacity, at least one (the
// paper's Kout = c/2).
func (q *TwoQ) kout() int64 {
	k := q.capacity / 2
	if k < 1 {
		k = 1
	}
	return k
}

// SetCapacity resizes the cache, evicting per the 2Q rule if it shrank and
// trimming the ghost FIFO to the new Kout.
func (q *TwoQ) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: 2Q capacity %d < 1", capacity)
	}
	q.capacity = capacity
	for q.Len() > capacity {
		q.evictOne()
	}
	for q.list(twoQA1out).size > q.kout() {
		q.dropGhostTail()
	}
	return nil
}

// Clear empties the cache and the ghost FIFO (the square-boundary
// convention) without touching the counters.
func (q *TwoQ) Clear() {
	for li := uint8(twoQA1in); li <= twoQAm; li++ {
		for s := q.list(li).head; s != nilNode; {
			nxt := q.next[s]
			q.where[s] = twoQNone
			s = nxt
		}
		*q.list(li) = arcList{head: nilNode, tail: nilNode}
	}
}

// Access touches block, returning true on a hit. On a miss the block is
// fetched — into Am if its ghost is still in A1out (the promotion signal),
// into A1in otherwise — self-evicting per the 2Q rule when the cache is
// full.
//
//lint:hotpath
func (q *TwoQ) Access(block int64) bool {
	q.ensure(block)
	switch q.where[block] {
	case twoQAm:
		// Hit in the main list: standard LRU promotion.
		q.hits++
		q.unlink(block)
		q.pushFront(twoQAm, block)
		return true
	case twoQA1in:
		// Hit in probation: deliberately *not* reordered — repeated
		// references inside one correlated burst shouldn't look hot.
		q.hits++
		return true
	case twoQA1out:
		// Ghost hit: second (uncorrelated) reference — promote into Am.
		q.misses++
		q.unlink(block)
		if q.Len() >= q.capacity {
			q.evictOne()
		}
		q.pushFront(twoQAm, block)
		return false
	}
	// Completely new block: probation.
	q.misses++
	if q.Len() >= q.capacity {
		q.evictOne()
	}
	q.pushFront(twoQA1in, block)
	return false
}

// evictOne frees one resident slot per the 2Q reclaim rule: take A1in's
// oldest while A1in is over its entitlement (remembering it as a ghost),
// otherwise Am's LRU (forgotten outright — Am pages got their chance).
func (q *TwoQ) evictOne() {
	a1in := q.list(twoQA1in)
	if a1in.size > 0 && (a1in.size > q.kinDyn() || q.list(twoQAm).size == 0) {
		old := a1in.tail
		q.unlink(int64(old))
		q.pushFront(twoQA1out, int64(old))
		for q.list(twoQA1out).size > q.kout() {
			q.dropGhostTail()
		}
		return
	}
	if t := q.list(twoQAm).tail; t != nilNode {
		q.unlink(int64(t))
	}
}

// Touch records a hit for the external-bound surface: Am entries get the
// LRU promotion, and a probation entry is promoted into Am — the
// *simplified* 2Q rule from the same paper. In external-bound mode the
// ghost FIFO never forms (this kernel never self-evicts there), so the
// full version's promote-on-ghost-hit signal cannot fire; promoting on the
// second touch instead is what keeps 2Q a meaningful segmented-LRU rather
// than collapsing into plain FIFO.
func (q *TwoQ) Touch(id int64) {
	if !q.Contains(id) {
		return
	}
	q.unlink(id)
	q.pushFront(twoQAm, id)
}

// Insert admits a new entry for the external-bound surface: into Am if a
// ghost vouches for it, into probation otherwise, with no eviction — the
// owning cache decides when to evict.
func (q *TwoQ) Insert(id int64) {
	q.ensure(id)
	switch q.where[id] {
	case twoQA1in, twoQAm:
		return
	case twoQA1out:
		q.unlink(id)
		q.pushFront(twoQAm, id)
		return
	}
	q.pushFront(twoQA1in, id)
}

// Victim reports the resident block evictOne would take next — A1in's
// oldest while A1in is over its entitlement, Am's LRU otherwise — or -1
// when empty.
func (q *TwoQ) Victim() int64 {
	a1in := q.list(twoQA1in)
	if a1in.size > 0 && (a1in.size > q.kinDyn() || q.list(twoQAm).size == 0) {
		return int64(a1in.tail)
	}
	if t := q.list(twoQAm).tail; t != nilNode {
		return int64(t)
	}
	if a1in.size > 0 {
		return int64(a1in.tail)
	}
	return -1
}

// Remove forgets an entry entirely — no ghost is recorded, because Remove
// is the external cache's eviction (or an ID about to be recycled), not a
// 2Q reclaim this kernel should learn from. Reports whether the block was
// resident; a stale ghost is dropped silently.
func (q *TwoQ) Remove(id int64) bool {
	if id < 0 || id >= int64(len(q.where)) || q.where[id] == twoQNone {
		return false
	}
	wasResident := q.Contains(id)
	q.unlink(id)
	return wasResident
}

// ensure grows the dense membership and link arrays (geometrically, so
// growth cost amortises to nothing) until block is a valid index.
func (q *TwoQ) ensure(block int64) {
	if block < int64(len(q.where)) {
		return
	}
	n := int64(len(q.where)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric index growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grownWhere := make([]uint8, n)
	copy(grownWhere, q.where)
	q.where = grownWhere
	//lint:ignore hotpath geometric link growth, same amortisation as the membership array above
	grownPrev := make([]int32, n)
	copy(grownPrev, q.prev)
	q.prev = grownPrev
	//lint:ignore hotpath geometric link growth, same amortisation as the membership array above
	grownNext := make([]int32, n)
	copy(grownNext, q.next)
	q.next = grownNext
}

// pushFront links block at the MRU end of list li and marks membership.
func (q *TwoQ) pushFront(li uint8, block int64) {
	l := q.list(li)
	s := int32(block)
	q.prev[s] = nilNode
	q.next[s] = l.head
	if l.head != nilNode {
		q.prev[l.head] = s
	}
	l.head = s
	if l.tail == nilNode {
		l.tail = s
	}
	l.size++
	q.where[block] = li
}

// unlink removes block from whichever list holds it and clears membership.
func (q *TwoQ) unlink(block int64) {
	l := q.list(q.where[block])
	s := int32(block)
	if p := q.prev[s]; p != nilNode {
		q.next[p] = q.next[s]
	} else {
		l.head = q.next[s]
	}
	if n := q.next[s]; n != nilNode {
		q.prev[n] = q.prev[s]
	} else {
		l.tail = q.prev[s]
	}
	l.size--
	q.where[block] = twoQNone
}

// dropGhostTail forgets A1out's oldest ghost.
func (q *TwoQ) dropGhostTail() {
	if t := q.list(twoQA1out).tail; t != nilNode {
		q.unlink(int64(t))
	}
}
