package paging

import "fmt"

// FIFO is a first-in-first-out page cache with dynamically adjustable
// capacity — the other classical marking-free policy, included so the
// DAM-validation experiments can show the usual LRU/FIFO/OPT ordering on
// the repository's traces.
//
// The implementation is a blockRing of blocks in fetch order plus a dense
// residency bitmap. A block leaves the ring only from its head, so the
// ring holds exactly one slot per resident block, and every operation is
// O(1) with no steady-state allocation. The ring's entries are int32, so
// block IDs must stay below 2^31.
type FIFO struct {
	capacity int64
	resident []bool    // block -> currently cached
	ring     blockRing // resident blocks in fetch order
	misses   int64
	hits     int64
}

// NewFIFO returns an empty FIFO cache with the given capacity (>= 1).
func NewFIFO(capacity int64) (*FIFO, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("paging: FIFO capacity %d < 1", capacity)
	}
	return &FIFO{capacity: capacity}, nil
}

// Len reports the number of resident blocks.
func (f *FIFO) Len() int64 { return int64(f.ring.size) }

// Misses reports the number of accesses that required a fetch.
func (f *FIFO) Misses() int64 { return f.misses }

// Hits reports the number of accesses served from cache.
func (f *FIFO) Hits() int64 { return f.hits }

// SetCapacity resizes the cache, evicting oldest blocks if it shrank.
func (f *FIFO) SetCapacity(capacity int64) error {
	if capacity < 1 {
		return fmt.Errorf("paging: FIFO capacity %d < 1", capacity)
	}
	f.capacity = capacity
	for f.Len() > f.capacity {
		f.evict()
	}
	return nil
}

// Reserve pre-sizes the residency bitmap for IDs up to maxBlock.
func (f *FIFO) Reserve(maxBlock int64) { f.grow(maxBlock) }

// Clear evicts everything without resetting the hit/miss counters.
func (f *FIFO) Clear() {
	for f.ring.size > 0 {
		f.evict()
	}
}

// Access touches block, returning true on a hit. FIFO does not reorder on
// hits — that is the whole difference from LRU.
//
//lint:hotpath
func (f *FIFO) Access(block int64) bool {
	if block < int64(len(f.resident)) {
		if f.resident[block] {
			f.hits++
			return true
		}
	} else {
		f.grow(block)
	}
	f.misses++
	if f.Len() >= f.capacity {
		f.evict()
	}
	if f.ring.full() {
		f.ring.grow()
	}
	f.ring.push(int32(block))
	f.resident[block] = true
	return false
}

// Hit counts a hit on a resident block and returns true (no reordering);
// a block that is not resident returns false untouched.
//
//lint:hotpath
func (f *FIFO) Hit(block int64) bool {
	if !f.Contains(block) {
		return false
	}
	f.hits++
	return true
}

// Contains reports whether block is resident without recording a hit.
func (f *FIFO) Contains(block int64) bool {
	return uint64(block) < uint64(len(f.resident)) && f.resident[block]
}

// Capacity reports the current capacity.
func (f *FIFO) Capacity() int64 { return f.capacity }

// evict removes the least recently fetched resident block; the ring must
// not be empty.
func (f *FIFO) evict() { f.resident[f.ring.pop()] = false }

// grow extends the residency bitmap to cover block, at least doubling it.
//
//go:noinline
func (f *FIFO) grow(block int64) {
	if block < int64(len(f.resident)) {
		return
	}
	if block > int64(^uint32(0)>>1) {
		panic("paging: block ID past the kernels' 2^31 index")
	}
	n := int64(len(f.resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric bitmap growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]bool, n)
	copy(grown, f.resident)
	f.resident = grown
}
