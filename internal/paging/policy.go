package paging

import (
	"fmt"
	"sort"
)

// ReplacementPolicy is the streaming kernel contract every registered
// policy implements: a cache of blocks that enforces its own — dynamically
// resizable — capacity, the way the cache-adaptive model requires, with
// Access self-evicting per the policy.
//
// Kernels are built for dense-remapped block universes (IDs allocated
// contiguously from 0): memory is O(max block ID seen), every operation is
// O(1) amortised, and the steady state of a Reserved replay performs no
// allocations. None of the methods are safe for concurrent use — the owner
// holds its own lock.
type ReplacementPolicy interface {
	// Access touches block against the kernel's own capacity, returning
	// true on a hit; on a miss the block is fetched, self-evicting per
	// the policy when the cache is full.
	Access(block int64) bool
	// Hit is Access's hit path alone: if block is resident it records
	// the hit exactly as Access would and returns true; otherwise it
	// returns false and changes nothing (an out-of-range or negative ID
	// grows no index). A replay that must act between detecting a miss
	// and serving it (PolicyStream rolls its box there) calls Hit, then
	// Access only on a miss, so a hit costs one dispatch.
	Hit(block int64) bool
	// Contains reports whether block is resident, without recording a
	// hit or perturbing the replacement state.
	Contains(block int64) bool
	// SetCapacity resizes the cache, evicting per the policy if it
	// shrank.
	SetCapacity(capacity int64) error
	// Capacity reports the current capacity.
	Capacity() int64
	// Reserve pre-sizes the dense indexes for block IDs up to maxBlock,
	// so a replay over a known universe allocates nothing in steady
	// state.
	Reserve(maxBlock int64)
	// Clear empties the cache (the square-boundary convention) without
	// touching the counters.
	Clear()
	// Hits reports the number of accesses served from cache.
	Hits() int64
	// Misses reports the number of accesses that required a fetch.
	Misses() int64
	// Len reports how many blocks are resident.
	Len() int64
}

// PolicyInfo describes one registered replacement policy.
type PolicyInfo struct {
	// Name keys the registry; it is what the experiment tables, mmtrace's
	// -policy and every other by-name surface accept.
	Name string
	// New constructs a kernel with the given capacity (>= 1).
	New func(capacity int64) (ReplacementPolicy, error)
}

// policyRegistry maps policy names to their descriptors. ARC/CAR-family
// policies (Consuegra et al., "Analyzing Adaptive Cache Replacement
// Strategies") register here from their kernel files' init functions.
var policyRegistry = map[string]PolicyInfo{}

// RegisterPolicy adds a policy to the name-keyed registry. It is intended
// for package init time and panics on duplicate or malformed registrations.
func RegisterPolicy(info PolicyInfo) {
	if info.Name == "" || info.New == nil {
		panic("paging: RegisterPolicy needs a name and a constructor")
	}
	if _, dup := policyRegistry[info.Name]; dup {
		panic("paging: duplicate replacement policy " + info.Name)
	}
	policyRegistry[info.Name] = info
}

func init() {
	RegisterPolicy(PolicyInfo{
		Name: "lru",
		New:  func(capacity int64) (ReplacementPolicy, error) { return NewLRU(capacity) },
	})
	RegisterPolicy(PolicyInfo{
		Name: "fifo",
		New:  func(capacity int64) (ReplacementPolicy, error) { return NewFIFO(capacity) },
	})
}

// NewReplacementPolicy returns a fresh kernel by registry name with the
// given capacity. Unknown names error with the registered names listed.
func NewReplacementPolicy(name string, capacity int64) (ReplacementPolicy, error) {
	info, ok := policyRegistry[name]
	if !ok {
		return nil, fmt.Errorf("paging: unknown eviction policy %q (have %v)", name, PolicyNames())
	}
	return info.New(capacity)
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		names = append(names, name) //lint:ignore maporder names is sorted immediately below
	}
	sort.Strings(names)
	return names
}
