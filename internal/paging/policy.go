package paging

import (
	"fmt"
	"math"
	"sort"
)

// ReplacementPolicy is the streaming kernel contract every registered
// policy implements. One array-backed kernel serves two operating modes:
//
//   - Replay mode: constructed at a finite capacity, the kernel enforces
//     its own — dynamically resizable — capacity, the way the
//     cache-adaptive model requires, and Access self-evicts per the policy.
//   - External-bound mode: constructed at UnboundedCapacity, the kernel
//     never self-evicts. The owning cache decides *when* to evict (an
//     entry-count bound, a bytes bound, a TTL sweep) and asks the kernel
//     *which* entry should go through Touch/Insert/Victim/Remove. That is
//     how the simulator's replay kernels double as the production result
//     cache's eviction engines (internal/service).
//
// Kernels are built for dense-remapped block universes (IDs allocated
// contiguously from 0): memory is O(max block ID seen), every operation is
// O(1) amortised, and the steady state of a Reserved replay performs no
// allocations. External-bound contract: Insert an ID at most once until it
// is Removed; Touch only resident IDs; Victim is stable until the next
// mutation. None of the methods are safe for concurrent use — the owner
// holds its own lock.
type ReplacementPolicy interface {
	// Access touches block against the kernel's own capacity, returning
	// true on a hit; on a miss the block is fetched, self-evicting per
	// the policy when the cache is full.
	Access(block int64) bool
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

	// Touch records a use of a resident entry (a cache hit).
	Touch(id int64)
	// Insert admits a new entry (a cache fill).
	Insert(id int64)
	// Victim reports which resident entry the policy would evict next,
	// or -1 when it tracks none. It does not remove the entry.
	Victim() int64
	// Remove forgets an entry (eviction, invalidation, expiry) and
	// reports whether it was tracked.
	Remove(id int64) bool
	// Len reports how many entries the policy currently tracks.
	Len() int64
}

// UnboundedCapacity is the capacity at which a kernel never self-evicts —
// the external-bound operating mode, where the owning cache calls
// Victim/Remove when *its* bound trips.
const UnboundedCapacity = int64(math.MaxInt64)

// PolicyInfo describes one registered replacement policy.
type PolicyInfo struct {
	// Name keys the registry; it is what -cache-policy, the experiment
	// tables, and every other by-name surface accept.
	Name string
	// Summary is a one-line description for catalogs and docs.
	Summary string
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
		Name:    "lru",
		Summary: "least-recently-used: intrusive recency list over a dense node pool",
		New:     func(capacity int64) (ReplacementPolicy, error) { return NewLRU(capacity) },
	})
	RegisterPolicy(PolicyInfo{
		Name:    "fifo",
		Summary: "first-in-first-out: circular fetch-order ring, hits do not reorder",
		New:     func(capacity int64) (ReplacementPolicy, error) { return NewFIFO(capacity) },
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

// HasPolicy reports whether name is registered.
func HasPolicy(name string) bool {
	_, ok := policyRegistry[name]
	return ok
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

// Policies lists the registered policy descriptors, sorted by name.
func Policies() []PolicyInfo {
	infos := make([]PolicyInfo, 0, len(policyRegistry))
	for _, name := range PolicyNames() {
		infos = append(infos, policyRegistry[name])
	}
	return infos
}
