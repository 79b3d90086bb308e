package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// LRU is a least-recently-used page cache whose capacity (in blocks) can
// change between accesses — the DAM-model cache generalised the way the
// cache-adaptive model requires. Shrinking the capacity immediately evicts
// the least recently used overflow.
//
// The implementation is an intrusive doubly-linked list over a slice-backed
// node pool, with a dense block→node index in place of a hash map: every
// operation is O(1) with no per-access allocation and no pointer chasing
// through heap-scattered nodes. The dense index assumes the compact block
// universes our generators emit (IDs allocated contiguously from 0); memory
// is O(max block ID seen), which for every trace in this repository is the
// same as O(distinct blocks) up to a small constant.
type LRU struct {
	capacity   int64
	slot       []int32 // block -> node index, nilNode when absent
	blockOf    []int64 // node -> block
	prev, next []int32 // intrusive recency list links
	free       []int32 // recycled node indices
	head, tail int32   // most / least recently used
	size       int64
	misses     int64
	hits       int64
}

const nilNode = int32(-1)

// NewLRU returns an empty LRU with the given capacity (>= 1).
func NewLRU(capacity int64) (*LRU, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: LRU capacity %d < 1", capacity)
	}
	return &LRU{capacity: capacity, head: nilNode, tail: nilNode}, nil
}

// Len reports the number of resident blocks.
func (l *LRU) Len() int64 { return l.size }

// Misses and Hits report the access counters.
func (l *LRU) Misses() int64 { return l.misses }

// Hits reports the number of accesses served from cache.
func (l *LRU) Hits() int64 { return l.hits }

// Capacity reports the current capacity.
func (l *LRU) Capacity() int64 { return l.capacity }

// SetCapacity resizes the cache, evicting LRU blocks if it shrank.
func (l *LRU) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: LRU capacity %d < 1", capacity)
	}
	l.capacity = capacity
	for l.size > l.capacity {
		l.evict()
	}
	return nil
}

// Reserve pre-sizes the block index for IDs up to maxBlock, so the steady
// state of a replay over a known universe performs no allocations at all.
func (l *LRU) Reserve(maxBlock int64) { l.ensure(maxBlock) }

// Clear empties the cache (the square-boundary convention) without
// touching the counters.
func (l *LRU) Clear() {
	for s := l.head; s != nilNode; {
		nxt := l.next[s]
		l.slot[l.blockOf[s]] = nilNode
		l.free = append(l.free, s)
		s = nxt
	}
	l.head, l.tail = nilNode, nilNode
	l.size = 0
}

// Access touches block, returning true on a hit. On a miss the block is
// fetched, evicting the LRU block if the cache is full.
//
//lint:hotpath
func (l *LRU) Access(block int64) bool {
	if l.Hit(block) {
		return true
	}
	l.ensure(block)
	l.misses++
	if l.size >= l.capacity {
		l.evict()
	}
	s := l.alloc(block)
	l.slot[block] = s
	l.pushFront(s)
	l.size++
	return false
}

// Hit moves a resident block to the front and returns true; a block that
// is not resident (or out of the index's range) returns false untouched.
//
//lint:hotpath
func (l *LRU) Hit(block int64) bool {
	if uint64(block) >= uint64(len(l.slot)) {
		return false
	}
	s := l.slot[block]
	if s == nilNode {
		return false
	}
	l.hits++
	l.moveToFront(s)
	return true
}

// ensure grows the dense index (geometrically, so growth cost amortises to
// nothing) until block is a valid slot.
func (l *LRU) ensure(block int64) {
	if block < int64(len(l.slot)) {
		return
	}
	n := int64(len(l.slot)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric index growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int32, n)
	copy(grown, l.slot)
	for i := len(l.slot); i < len(grown); i++ {
		grown[i] = nilNode
	}
	l.slot = grown
}

func (l *LRU) alloc(block int64) int32 {
	if n := len(l.free); n > 0 {
		s := l.free[n-1]
		l.free = l.free[:n-1]
		l.blockOf[s] = block
		return s
	}
	s := int32(len(l.blockOf))
	l.blockOf = append(l.blockOf, block)
	l.prev = append(l.prev, nilNode)
	l.next = append(l.next, nilNode)
	return s
}

func (l *LRU) pushFront(s int32) {
	l.prev[s] = nilNode
	l.next[s] = l.head
	if l.head != nilNode {
		l.prev[l.head] = s
	}
	l.head = s
	if l.tail == nilNode {
		l.tail = s
	}
}

func (l *LRU) unlink(s int32) {
	if p := l.prev[s]; p != nilNode {
		l.next[p] = l.next[s]
	} else {
		l.head = l.next[s]
	}
	if n := l.next[s]; n != nilNode {
		l.prev[n] = l.prev[s]
	} else {
		l.tail = l.prev[s]
	}
	l.prev[s], l.next[s] = nilNode, nilNode
}

func (l *LRU) moveToFront(s int32) {
	if l.head == s {
		return
	}
	l.unlink(s)
	l.pushFront(s)
}

func (l *LRU) evict() {
	if l.tail == nilNode {
		return
	}
	v := l.tail
	l.unlink(v)
	l.slot[l.blockOf[v]] = nilNode
	l.free = append(l.free, v)
	l.size--
}

// Contains reports whether block is resident without recording a hit.
func (l *LRU) Contains(block int64) bool {
	return block >= 0 && block < int64(len(l.slot)) && l.slot[block] != nilNode
}

// RunLRUProfile replays the stream emit produces through an LRU whose
// capacity follows the raw memory profile m: the cache has capacity m(t)
// while serving the t-th miss (I/O); time — and hence the profile index —
// advances only on misses, as in the CA model. m is read in order, one
// step per miss, so only a RawReader window of it is held; if the stream
// needs more I/Os than m has steps, the last step is held. maxBlock is the
// stream's largest block ID (-1 if unknown), used to pre-size the cache.
// Returns the miss count.
func RunLRUProfile(emit func(trace.Sink) error, maxBlock int64, m profile.Raw) (int64, error) {
	rd := profile.NewRawReader(m)
	first, ok := rd.Next()
	if !ok {
		return 0, fmt.Errorf("paging: empty profile")
	}
	l, err := NewLRU(first)
	if err != nil {
		return 0, err
	}
	if maxBlock >= 0 {
		l.Reserve(maxBlock)
	}
	s := &profileLRU{lru: l, m: rd, size: first}
	if err := emit(s); err != nil {
		return 0, err
	}
	if s.err != nil {
		return 0, s.err
	}
	return l.Misses(), nil
}

// profileLRU is RunLRUProfile's sink: an LRU that applies the profile's
// next size after every miss.
type profileLRU struct {
	lru  *LRU
	m    *profile.RawReader
	size int64 // the capacity the profile last set
	err  error
}

func (s *profileLRU) Access(block int64) {
	if s.err != nil || s.lru.Access(block) {
		return
	}
	// A miss: time advanced; apply the post-I/O capacity.
	if m, ok := s.m.Next(); ok {
		s.size = m
	}
	s.err = s.lru.SetCapacity(s.size)
}

func (s *profileLRU) AccessRange(lo, count int64) {
	for i := int64(0); i < count && s.err == nil; i++ {
		s.Access(lo + i)
	}
}

func (s *profileLRU) EndLeaf() {}

// Stopped ends the replay at the first capacity error.
func (s *profileLRU) Stopped() bool { return s.err != nil }
