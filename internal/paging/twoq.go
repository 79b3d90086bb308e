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
// Layout: A1out (a ghost FIFO a ghost hit unlinks from the middle) and Am
// (an LRU list) live in one blockLists, like the ARC kernel's lists. A1in
// only ever loses its oldest block, so it is a blockRing, and its blocks
// are marked twoQA1in in their blockLists nodes with no links. There is no
// steady-state allocation, and block IDs are dense-remapped below 2^31.
//
// Tuning follows the paper's recommendation with the fixed fractions made
// dynamic so capacity changes are honoured: A1in is entitled to
// max(1, Len()/4) slots (equal to the classic Kin = c/4 whenever the cache
// is full) and A1out remembers max(1, capacity/2) ghosts.
type TwoQ struct {
	blockLists           // lists twoQA1out and twoQAm, each newest at the head
	a1in       blockRing // A1in in fetch order
	capacity   int64
	hits       int64
	misses     int64
}

// List numbers in the 2Q cache's blockLists; twoQA1in marks the blocks in
// the a1in ring, which are on no list.
const (
	twoQA1in = uint8(iota + 1)
	twoQA1out
	twoQAm
)

// NewTwoQ returns an empty 2Q cache with the given capacity (>= 1).
func NewTwoQ(capacity int64) (*TwoQ, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: 2Q capacity %d < 1", capacity)
	}
	return &TwoQ{blockLists: newBlockLists(), capacity: capacity}, nil
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name: "2q",
		New:  func(capacity int64) (ReplacementPolicy, error) { return NewTwoQ(capacity) },
	})
}

// Len reports the number of resident blocks (A1in + Am; ghosts don't count).
func (q *TwoQ) Len() int64 { return int64(q.a1in.size) + q.ends[twoQAm].size }

// Misses reports the number of accesses that required a fetch.
func (q *TwoQ) Misses() int64 { return q.misses }

// Hits reports the number of accesses served from cache.
func (q *TwoQ) Hits() int64 { return q.hits }

// Capacity reports the current capacity.
func (q *TwoQ) Capacity() int64 { return q.capacity }

// Contains reports whether block is resident without recording a hit.
func (q *TwoQ) Contains(block int64) bool {
	w := q.on(block)
	return w == twoQA1in || w == twoQAm
}

// Hit records a hit on a resident block and returns true; a block that is
// not resident (a ghost, or out of the index's range) returns false
// untouched.
//
//lint:hotpath
func (q *TwoQ) Hit(block int64) bool {
	switch q.on(block) {
	case twoQAm:
		// Hit in the main list: standard LRU promotion.
		q.hits++
		q.moveToFront(twoQAm, int32(block))
		return true
	case twoQA1in:
		// Hit in probation: deliberately *not* reordered — repeated
		// references inside one correlated burst shouldn't look hot.
		q.hits++
		return true
	}
	return false
}

// Reserve pre-sizes the dense index for block IDs up to maxBlock.
func (q *TwoQ) Reserve(maxBlock int64) { q.reserve(maxBlock) }

// kinDyn is A1in's slot entitlement: a quarter of the *current* occupancy,
// at least one. While the cache is full this equals the classic Kin = c/4;
// tying it to occupancy instead of capacity keeps the rule meaningful while
// a large cache is still filling.
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
	for q.ends[twoQA1out].size > q.kout() {
		q.popTail(twoQA1out)
	}
	return nil
}

// Clear empties the cache and the ghost FIFO (the square-boundary
// convention) without touching the counters.
func (q *TwoQ) Clear() {
	q.clear()
	for q.a1in.size > 0 {
		q.nodes[q.a1in.pop()].list = 0
	}
}

// Access touches block, returning true on a hit. On a miss the block is
// fetched — into Am if its ghost is still in A1out (the promotion signal),
// into A1in otherwise — self-evicting per the 2Q rule when the cache is
// full.
//
//lint:hotpath
func (q *TwoQ) Access(block int64) bool {
	s := int32(block)
	switch q.on(block) {
	case twoQAm:
		q.hits++
		q.moveToFront(twoQAm, s)
		return true
	case twoQA1in:
		q.hits++
		return true
	case twoQA1out:
		// Ghost hit: second (uncorrelated) reference — promote into Am.
		q.unlink(s)
		q.misses++
		if q.Len() >= q.capacity {
			q.evictOne()
		}
		q.pushFront(twoQAm, s)
		return false
	}
	// Completely new block: probation.
	if block >= int64(len(q.nodes)) {
		q.reserve(block)
	}
	q.misses++
	if q.Len() >= q.capacity {
		q.evictOne()
	}
	if q.a1in.full() {
		q.a1in.grow()
	}
	q.a1in.push(s)
	q.nodes[s].list = twoQA1in
	return false
}

// evictOne frees one resident slot per the 2Q reclaim rule: take A1in's
// oldest while A1in is over its entitlement (remembering it as a ghost),
// otherwise Am's LRU (forgotten outright — Am pages got their chance).
func (q *TwoQ) evictOne() {
	if in := int64(q.a1in.size); in > 0 && (in > q.kinDyn() || q.ends[twoQAm].size == 0) {
		q.pushFront(twoQA1out, q.a1in.pop())
		for q.ends[twoQA1out].size > q.kout() {
			q.popTail(twoQA1out)
		}
		return
	}
	if q.ends[twoQAm].size > 0 {
		q.popTail(twoQAm)
	}
}
