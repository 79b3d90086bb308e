package paging

import "fmt"

// FIFO is a first-in-first-out page cache with dynamically adjustable
// capacity — the other classical marking-free policy, included so the
// DAM-validation experiments can show the usual LRU/FIFO/OPT ordering on
// the repository's traces.
//
// The implementation is a circular ring of blocks in fetch order plus a
// dense residency bitmap. Access/evict keep every operation O(1) with no
// steady-state allocation. Remove (needed when FIFO serves as an eviction
// policy under an external bound, not just as a replay kernel) marks the
// block non-resident and leaves its ring slot behind as a stale entry;
// stale slots are skipped lazily when the eviction cursor reaches them, so
// removal is O(1) amortised too. A slot holds the *current* entry for its
// block exactly when the block is resident and `at[block]` points back at
// the slot — re-inserting a removed block pushes a fresh slot and retargets
// `at`, which is what keeps old slots recognisably stale.
type FIFO struct {
	capacity int64
	resident []bool  // block -> currently cached
	at       []int32 // block -> ring index of its current slot (while resident)
	ring     []int64 // circular buffer of blocks in fetch order
	ringHead int     // index of the oldest slot (live or stale)
	size     int     // slots in the window, including stale ones
	dead     int     // stale slots in the window (Removed, not yet skipped)
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
func (f *FIFO) Len() int64 { return int64(f.size - f.dead) }

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
func (f *FIFO) Reserve(maxBlock int64) { f.ensure(maxBlock) }

// Clear evicts everything without resetting the hit/miss counters.
func (f *FIFO) Clear() {
	for f.size > 0 {
		f.evict()
	}
}

// Access touches block, returning true on a hit. FIFO does not reorder on
// hits — that is the whole difference from LRU.
//
//lint:hotpath
func (f *FIFO) Access(block int64) bool {
	f.ensure(block)
	if f.resident[block] {
		f.hits++
		return true
	}
	f.misses++
	if f.Len() >= f.capacity {
		f.evict()
	}
	f.push(block)
	f.resident[block] = true
	return false
}

// Contains reports whether block is resident without recording a hit.
func (f *FIFO) Contains(block int64) bool {
	return block >= 0 && block < int64(len(f.resident)) && f.resident[block]
}

// Capacity reports the current capacity.
func (f *FIFO) Capacity() int64 { return f.capacity }

// Touch is a no-op — not reordering on hits is the definition of FIFO
// (external-bound surface).
func (f *FIFO) Touch(int64) {}

// Insert admits a new entry (external-bound surface). At UnboundedCapacity
// the kernel never self-evicts, so Access doubles as the fill path.
func (f *FIFO) Insert(id int64) { f.Access(id) }

// Victim returns the least recently fetched resident block — the one
// Access would evict next — or -1 when the cache is empty. It does not
// evict; pair it with Remove under an external bound.
func (f *FIFO) Victim() int64 {
	f.skipStale()
	if f.size == 0 {
		return -1
	}
	return f.ring[f.ringHead]
}

// Remove evicts one specific resident block, wherever it sits in fetch
// order, and reports whether it was resident. The ring slot stays behind
// as a stale entry and is skipped when the eviction cursor reaches it.
func (f *FIFO) Remove(block int64) bool {
	if block < 0 || block >= int64(len(f.resident)) || !f.resident[block] {
		return false
	}
	f.resident[block] = false
	f.dead++
	return true
}

func (f *FIFO) ensure(block int64) {
	if block < int64(len(f.resident)) {
		return
	}
	n := int64(len(f.resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric bitmap growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grownResident := make([]bool, n)
	copy(grownResident, f.resident)
	f.resident = grownResident
	//lint:ignore hotpath geometric index growth, same amortisation as the bitmap above
	grownAt := make([]int32, n)
	copy(grownAt, f.at)
	f.at = grownAt
}

// push appends block at the ring's tail, unwrapping into a larger buffer
// when full (growth amortises geometrically).
func (f *FIFO) push(block int64) {
	if f.size == len(f.ring) {
		n := 2 * len(f.ring)
		if n < 4 {
			n = 4
		}
		//lint:ignore hotpath geometric ring growth amortises to O(1) per fetch; the ring stops growing once sized to the peak window
		grown := make([]int64, n)
		for i := 0; i < f.size; i++ {
			grown[i] = f.ring[(f.ringHead+i)%len(f.ring)]
		}
		f.ring = grown
		f.ringHead = 0
		// Re-target the current-slot index of every resident block. Slots
		// are visited oldest to newest and a block's current slot is always
		// its newest, so the last write wins and stale slots are harmless.
		for i := 0; i < f.size; i++ {
			if b := f.ring[i]; f.resident[b] {
				f.at[b] = int32(i)
			}
		}
	}
	idx := (f.ringHead + f.size) % len(f.ring)
	f.ring[idx] = block
	f.at[block] = int32(idx)
	f.size++
}

// skipStale advances the cursor past slots whose block was Removed (or
// re-inserted, leaving the old slot behind).
func (f *FIFO) skipStale() {
	for f.size > 0 {
		b := f.ring[f.ringHead]
		if f.resident[b] && f.at[b] == int32(f.ringHead) {
			return
		}
		f.ringHead = (f.ringHead + 1) % len(f.ring)
		f.size--
		f.dead--
	}
}

// evict removes the least recently fetched resident block.
func (f *FIFO) evict() {
	f.skipStale()
	if f.size == 0 {
		return
	}
	f.resident[f.ring[f.ringHead]] = false
	f.ringHead = (f.ringHead + 1) % len(f.ring)
	f.size--
}
