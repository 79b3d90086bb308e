package service

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/paging"
)

// shardedCache is the service's content-addressed result store: rendered
// result bodies keyed by core.CacheKey hashes, spread over N independent
// shards so concurrent requests for different keys never contend on one
// mutex. Each shard owns its own lock, its own singleflight table, and its
// own eviction policy — a paging.ReplacementPolicy built at
// paging.UnboundedCapacity, so it never self-evicts and the shard drives
// evictions through its Touch/Insert/Victim/Remove surface. The
// dense-remapped kernels the simulator measures are therefore the exact
// engines that order production evictions.
//
// Because experiments are deterministic pure functions of the hashed
// inputs, a cached body is not an approximation of a fresh run — it is
// byte-identical to one, so the cache could serve it forever; eviction
// exists only to bound memory (an entry-count bound and a bytes bound, the
// sum of body lengths) and TTL exists only for operators who want an upper
// bound on replay age. With stale-while-revalidate enabled, a body past
// its TTL but inside the SWR window is served as-is while a single
// background refresh recomputes it through the shard's singleflight.
type shardedCache struct {
	cfg       cacheConfig
	shardBits uint // log2(len(shards))
	disabled  bool // entry or bytes bound of 0: singleflight only, no storing
	shards    []*cacheShard
}

// cacheConfig fixes a shardedCache's shape. The service's Options maps
// onto it in New; tests build it directly.
type cacheConfig struct {
	// shards is the shard count; it is rounded up to a power of two so
	// shard selection is a bit shift of the key's top bits.
	shards int
	// maxEntries and maxBytes bound the whole cache (they are split evenly
	// across shards, rounded up). Either being 0 disables caching: do()
	// still collapses concurrent identical runs, but nothing is stored —
	// the successor semantics of the old capacity<=0 behaviour, where
	// insert immediately evicted the entry it had just added.
	maxEntries int64
	maxBytes   int64
	// ttl bounds an entry's age; 0 means entries never expire. swr extends
	// ttl with a stale-while-revalidate window: a body older than ttl but
	// younger than ttl+swr is served stale while one background refresh
	// recomputes it.
	ttl time.Duration
	swr time.Duration
	// policy names the per-shard eviction policy — any registered
	// replacement kernel ("lru", "fifo", "arc", "2q"; see
	// paging.PolicyNames).
	policy string
	// clock is the injected time source for TTL bookkeeping. Required when
	// ttl > 0; never called otherwise.
	clock func() time.Time
}

// cacheShard is one lock's worth of the cache. Entries are indexed two
// ways: by key for lookup, and by a dense int64 ID for the eviction
// policy, whose kernels want the compact universes the paging package is
// built around. IDs are recycled through a free list, so the dense side
// stays as small as the shard's peak entry count.
type cacheShard struct {
	mu sync.Mutex
	//lint:guardedby mu
	entries map[string]*cacheEntry
	//lint:guardedby mu
	byID []*cacheEntry
	//lint:guardedby mu
	freeIDs []int64
	//lint:guardedby mu
	policy paging.ReplacementPolicy
	//lint:guardedby mu
	bytes int64 // sum of resident body lengths
	//lint:guardedby mu
	inflight map[string]*flight

	maxEntries int64
	maxBytes   int64

	// Per-shard counters, aggregated into /metrics. Atomics because hits/
	// misses/coalesced are recorded by the server after do() returns,
	// outside the shard lock.
	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	staleServed atomic.Int64
	refreshes   atomic.Int64
	evictions   atomic.Int64
	expired     atomic.Int64
}

type cacheEntry struct {
	key     string
	id      int64 // dense policy ID
	body    []byte
	expires time.Time // zero when TTL is disabled
}

// flight is one in-progress computation of a key — a leader's run or a
// stale-while-revalidate refresh. Followers block on done and then read
// body/err; both are written exactly once, before close.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// outcome says how a do call was served, for the /metrics counters.
type outcome int

const (
	outcomeHit       outcome = iota // served from the cache (fresh or stale-while-revalidate)
	outcomeMiss                     // ran the computation (and filled the cache)
	outcomeCoalesced                // waited on another caller's identical run
	outcomeShed                     // rejected at admission: queue full, never ran
)

func newShardedCache(cfg cacheConfig) (*shardedCache, error) {
	if cfg.shards < 1 {
		return nil, fmt.Errorf("service: cache shards %d < 1", cfg.shards)
	}
	if cfg.maxEntries < 0 || cfg.maxBytes < 0 {
		return nil, fmt.Errorf("service: negative cache bound (entries %d, bytes %d)", cfg.maxEntries, cfg.maxBytes)
	}
	if cfg.ttl < 0 || cfg.swr < 0 {
		return nil, fmt.Errorf("service: negative cache TTL/SWR (%v, %v)", cfg.ttl, cfg.swr)
	}
	if cfg.swr > 0 && cfg.ttl == 0 {
		return nil, fmt.Errorf("service: stale-while-revalidate window %v without a TTL", cfg.swr)
	}
	if cfg.ttl > 0 && cfg.clock == nil {
		return nil, fmt.Errorf("service: cache TTL %v requires an injected clock", cfg.ttl)
	}
	if cfg.policy == "" {
		cfg.policy = "lru"
	}
	// Power-of-two shard count: selection is then a shift of the key's top
	// bits, and every key maps to exactly one shard by construction.
	n := 1 << uint(bits.Len(uint(cfg.shards-1)))
	c := &shardedCache{
		cfg:       cfg,
		shardBits: uint(bits.TrailingZeros(uint(n))),
		disabled:  cfg.maxEntries == 0 || cfg.maxBytes == 0,
		shards:    make([]*cacheShard, n),
	}
	perEntries := (cfg.maxEntries + int64(n) - 1) / int64(n)
	perBytes := (cfg.maxBytes + int64(n) - 1) / int64(n)
	for i := range c.shards {
		pol, err := paging.NewReplacementPolicy(cfg.policy, paging.UnboundedCapacity)
		if err != nil {
			return nil, err
		}
		c.shards[i] = &cacheShard{
			entries:    make(map[string]*cacheEntry),
			inflight:   make(map[string]*flight),
			policy:     pol,
			maxEntries: perEntries,
			maxBytes:   perBytes,
		}
	}
	return c, nil
}

// shardFor routes a key to its shard: the top shardBits bits of the
// SHA-256 the key spells in hex. Routing is a pure function of the key —
// no state, no locks — so the same key always lands on the same shard and
// two concurrent requests for it always meet in the same singleflight
// table. Keys that are not 64-char hex (tests, future key schemes) fall
// back to an FNV-1a hash of the raw string, keeping the same pure-function
// guarantee.
func (c *shardedCache) shardFor(key string) int {
	if c.shardBits == 0 {
		return 0
	}
	h, ok := hexPrefix64(key)
	if !ok {
		h = fnv1a(key)
	}
	return int(h >> (64 - c.shardBits))
}

// hexPrefix64 parses the first 16 hex digits of key as a big-endian
// uint64 — the top 64 bits of a SHA-256 rendered in hex.
func hexPrefix64(key string) (uint64, bool) {
	if len(key) < 16 {
		return 0, false
	}
	var h uint64
	for i := 0; i < 16; i++ {
		var d uint64
		switch ch := key[i]; {
		case ch >= '0' && ch <= '9':
			d = uint64(ch - '0')
		case ch >= 'a' && ch <= 'f':
			d = uint64(ch-'a') + 10
		case ch >= 'A' && ch <= 'F':
			d = uint64(ch-'A') + 10
		default:
			return 0, false
		}
		h = h<<4 | d
	}
	return h, true
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// len reports the number of cached bodies across all shards.
func (c *shardedCache) len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// record folds a request outcome into its key's shard counters. Sheds are
// admission-level and belong to the server's metrics, not to a shard.
func (c *shardedCache) record(key string, oc outcome) {
	sh := c.shards[c.shardFor(key)]
	switch oc {
	case outcomeHit:
		sh.hits.Add(1)
	case outcomeMiss:
		sh.misses.Add(1)
	case outcomeCoalesced:
		sh.coalesced.Add(1)
	}
}

// freshness classifies an entry against the injected clock.
type freshness int

const (
	fresh         freshness = iota // inside TTL (or TTL disabled): serve it
	staleServable                  // past TTL, inside the SWR window: serve stale, refresh once
	expired                        // past TTL+SWR: treat as absent
)

func (c *shardedCache) freshnessOf(e *cacheEntry) freshness {
	if c.cfg.ttl == 0 {
		return fresh
	}
	now := c.cfg.clock()
	if now.Before(e.expires) {
		return fresh
	}
	if c.cfg.swr > 0 && now.Before(e.expires.Add(c.cfg.swr)) {
		return staleServable
	}
	return expired
}

// do returns the body for key, computing it with fn on a miss. Exactly one
// caller per key runs fn at a time; concurrent callers for the same key
// coalesce onto that run and share its result. Errors are returned to every
// coalesced caller but never cached — the next request retries. The
// returned body is shared and must not be mutated.
//
// ctx bounds only the *waiting* of a coalesced caller; the computation
// itself runs under the leader's context, because its result is shared.
func (c *shardedCache) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, outcome, error) {
	sh := c.shards[c.shardFor(key)]
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		switch c.freshnessOf(e) {
		case fresh:
			sh.policy.Touch(e.id)
			body := e.body
			sh.mu.Unlock()
			return body, outcomeHit, nil
		case staleServable:
			sh.policy.Touch(e.id)
			body := e.body
			if _, running := sh.inflight[key]; !running {
				f := &flight{done: make(chan struct{})}
				sh.inflight[key] = f
				sh.refreshes.Add(1)
				go c.refresh(sh, key, f, fn)
			}
			sh.staleServed.Add(1)
			sh.mu.Unlock()
			return body, outcomeHit, nil
		default: // expired
			sh.removeLocked(e)
			sh.expired.Add(1)
		}
	}
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.body, outcomeCoalesced, f.err
		case <-ctx.Done():
			return nil, outcomeCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()

	f.body, f.err = runContained(key, fn)

	sh.mu.Lock()
	delete(sh.inflight, key)
	if f.err == nil {
		c.insertLocked(sh, key, f.body)
	}
	sh.mu.Unlock()
	close(f.done)
	return f.body, outcomeMiss, f.err
}

// refresh is the stale-while-revalidate background run: it recomputes key
// through the same flight mechanism a leader uses, so concurrent callers
// whose entry vanished mid-refresh coalesce onto it, and exactly one
// recomputation runs no matter how many stale hits observed the expiry.
// Panics inside fn are contained by runContained; the surrounding code
// performs no panicking operations, so the process stays alive.
func (c *shardedCache) refresh(sh *cacheShard, key string, f *flight, fn func() ([]byte, error)) {
	f.body, f.err = runContained(key, fn)
	sh.mu.Lock()
	delete(sh.inflight, key)
	if f.err == nil {
		c.insertLocked(sh, key, f.body) // replaces the stale body, resets expiry
	}
	sh.mu.Unlock()
	close(f.done)
}

// runContained runs fn with panic containment at the singleflight
// boundary: if the panic escaped, the flight cleanup would never run, the
// in-flight entry would leak, and every future caller of this key would
// block forever on a flight that can no longer complete. Converting to an
// error instead fails this request (and its coalesced followers) while
// the key stays retryable.
func runContained(key string, fn func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: run for key %s panicked: %v\n%s", key, r, debug.Stack())
		}
	}()
	return fn()
}

// expiry stamps a fill time against the TTL; the zero time means "never".
func (c *shardedCache) expiry() time.Time {
	if c.cfg.ttl == 0 {
		return time.Time{}
	}
	return c.cfg.clock().Add(c.cfg.ttl)
}

// insertLocked adds (or refreshes) a body and evicts past the shard's
// bounds. Callers hold sh.mu. The entry just inserted is never the
// eviction victim: a body too large to ever fit is simply not cached, and
// the overflow loop stops before reaching the newest entry.
//
//lint:locked mu
func (c *shardedCache) insertLocked(sh *cacheShard, key string, body []byte) {
	if c.disabled {
		return
	}
	n := int64(len(body))
	if e, ok := sh.entries[key]; ok {
		// Possible if an entry was evicted and recomputed concurrently, or
		// refreshed by stale-while-revalidate; both computations produced
		// equivalent bytes, keep the fresh ones and the fresh expiry.
		if n > sh.maxBytes {
			sh.removeLocked(e) // grew past what this shard may ever hold
			return
		}
		sh.bytes += n - int64(len(e.body))
		e.body = body
		e.expires = c.expiry()
		sh.policy.Touch(e.id)
		sh.evictOverflowLocked(e.id)
		return
	}
	if n > sh.maxBytes {
		return // can never fit; caching it would evict everything for nothing
	}
	e := &cacheEntry{key: key, body: body, expires: c.expiry()}
	if k := len(sh.freeIDs); k > 0 {
		e.id = sh.freeIDs[k-1]
		sh.freeIDs = sh.freeIDs[:k-1]
		sh.byID[e.id] = e
	} else {
		e.id = int64(len(sh.byID))
		sh.byID = append(sh.byID, e)
	}
	sh.entries[key] = e
	sh.policy.Insert(e.id)
	sh.bytes += n
	sh.evictOverflowLocked(e.id)
}

// evictOverflowLocked evicts policy victims until both bounds hold again,
// never evicting the entry identified by keep. Callers hold sh.mu.
//
//lint:locked mu
func (sh *cacheShard) evictOverflowLocked(keep int64) {
	for sh.bytes > sh.maxBytes || int64(len(sh.entries)) > sh.maxEntries {
		v := sh.policy.Victim()
		if v == keep {
			// Segmented policies (ARC, 2Q) can nominate the just-inserted
			// entry while older residents remain — a fresh insert sits in
			// the probation segment, which is exactly where those policies
			// evict from first. Lift it out, take the next victim, and put
			// it back (a fresh insert's position is re-created exactly by
			// Insert, so the policy state is unchanged).
			sh.policy.Remove(keep)
			v = sh.policy.Victim()
			sh.policy.Insert(keep)
		}
		if v < 0 {
			return
		}
		sh.removeLocked(sh.byID[v])
		sh.evictions.Add(1)
	}
}

// removeLocked forgets an entry everywhere: key map, dense index, policy,
// bytes ledger. Callers hold sh.mu.
//
//lint:locked mu
func (sh *cacheShard) removeLocked(e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.policy.Remove(e.id)
	sh.bytes -= int64(len(e.body))
	sh.byID[e.id] = nil
	sh.freeIDs = append(sh.freeIDs, e.id)
}

// cacheStats is a point-in-time aggregate view of the cache for /metrics.
type cacheStats struct {
	Hits, Misses, Coalesced int64
	StaleServed, Refreshes  int64
	Evictions, Expired      int64
	Entries                 int
	Bytes                   int64
	Shards                  []shardStats
}

// shardStats is one shard's slice of cacheStats.
type shardStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Coalesced   int64 `json:"coalesced"`
	StaleServed int64 `json:"stale_served"`
	Refreshes   int64 `json:"refreshes"`
	Evictions   int64 `json:"evictions"`
	Expired     int64 `json:"expired"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// stats snapshots every shard. The totals are sums of the per-shard
// counters — the same numbers, so the conservation invariant the chaos
// suite asserts (hits+misses+coalesced+sheds == requests) survives
// sharding by construction.
func (c *shardedCache) stats() cacheStats {
	var s cacheStats
	s.Shards = make([]shardStats, len(c.shards))
	for i, sh := range c.shards {
		st := &s.Shards[i]
		st.Hits = sh.hits.Load()
		st.Misses = sh.misses.Load()
		st.Coalesced = sh.coalesced.Load()
		st.StaleServed = sh.staleServed.Load()
		st.Refreshes = sh.refreshes.Load()
		st.Evictions = sh.evictions.Load()
		st.Expired = sh.expired.Load()
		sh.mu.Lock()
		st.Entries = len(sh.entries)
		st.Bytes = sh.bytes
		sh.mu.Unlock()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Coalesced += st.Coalesced
		s.StaleServed += st.StaleServed
		s.Refreshes += st.Refreshes
		s.Evictions += st.Evictions
		s.Expired += st.Expired
		s.Entries += st.Entries
		s.Bytes += st.Bytes
	}
	return s
}
