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
// The implementation is one intrusive recency list in a blockLists, whose
// nodes are indexed by block ID in place of a hash map: every operation is
// O(1) with no per-access allocation, and a block's membership and links
// sit in one node. The dense index assumes the compact block universes our
// generators emit (IDs allocated contiguously from 0); memory is O(max
// block ID seen), which for every trace in this repository is the same as
// O(distinct blocks) up to a small constant.
type LRU struct {
	blockLists // one list, lruList: head most, tail least recently used
	capacity   int64
	misses     int64
	hits       int64
}

// lruList is the LRU's one list in its blockLists.
const lruList = uint8(1)

// NewLRU returns an empty LRU with the given capacity (>= 1).
func NewLRU(capacity int64) (*LRU, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: LRU capacity %d < 1", capacity)
	}
	return &LRU{blockLists: newBlockLists(), capacity: capacity}, nil
}

// Len reports the number of resident blocks.
func (l *LRU) Len() int64 { return l.ends[lruList].size }

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
	for l.Len() > l.capacity {
		l.popTail(lruList)
	}
	return nil
}

// Reserve pre-sizes the block index for IDs up to maxBlock, so the steady
// state of a replay over a known universe performs no allocations at all.
func (l *LRU) Reserve(maxBlock int64) { l.reserve(maxBlock) }

// Clear empties the cache (the square-boundary convention) without
// touching the counters.
func (l *LRU) Clear() { l.clear() }

// Access touches block, returning true on a hit. On a miss the block is
// fetched, evicting the LRU block if the cache is full.
//
//lint:hotpath
func (l *LRU) Access(block int64) bool {
	if l.on(block) != 0 {
		l.hits++
		l.moveToFront(lruList, int32(block))
		return true
	}
	if block >= int64(len(l.nodes)) {
		l.reserve(block)
	}
	l.misses++
	if l.Len() >= l.capacity {
		l.popTail(lruList)
	}
	l.pushFront(lruList, int32(block))
	return false
}

// Hit moves a resident block to the front and returns true; a block that
// is not resident (or out of the index's range) returns false untouched.
//
//lint:hotpath
func (l *LRU) Hit(block int64) bool {
	if l.on(block) == 0 {
		return false
	}
	l.hits++
	l.moveToFront(lruList, int32(block))
	return true
}

// Contains reports whether block is resident without recording a hit.
func (l *LRU) Contains(block int64) bool { return l.on(block) != 0 }

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
