package service

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// shardedCache is the service's content-addressed result store: rendered
// result bodies keyed by core.CacheKey hashes, spread over N independent
// shards so concurrent requests for different keys never contend on one
// mutex. Each shard owns its own lock, its own singleflight table, and its
// own LRU order: an intrusive doubly-linked recency list threaded through
// its entries.
//
// Because experiments are deterministic pure functions of the hashed
// inputs, a cached body is not an approximation of a fresh run — it is
// byte-identical to one, so the cache serves it until evicted: eviction
// exists only to bound memory (an entry-count bound and a bytes bound, the
// sum of body lengths), and nothing ever expires.
type shardedCache struct {
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
	// still collapses concurrent identical runs, but nothing is stored.
	maxEntries int64
	maxBytes   int64
}

// cacheShard is one lock's worth of the cache. Entries are indexed by key
// for lookup and linked head-to-tail in recency order for eviction.
type cacheShard struct {
	mu sync.Mutex
	//lint:guardedby mu
	entries map[string]*cacheEntry
	//lint:guardedby mu
	head *cacheEntry // most recently used
	//lint:guardedby mu
	tail *cacheEntry // least recently used: the next eviction victim
	//lint:guardedby mu
	bytes int64 // sum of resident body lengths
	//lint:guardedby mu
	inflight map[string]*flight

	maxEntries int64
	maxBytes   int64

	// Per-shard counters, aggregated into /metrics. Atomics because hits/
	// misses/coalesced are recorded by the server after do() returns,
	// outside the shard lock.
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one cached body. prev and next link it into its shard's
// recency list and are guarded by that shard's mu.
type cacheEntry struct {
	key        string
	body       []byte
	prev, next *cacheEntry
}

// flight is one in-progress computation of a key, a leader's run.
// Followers block on done and then read body/err; both are written exactly
// once, before close.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// outcome says how a do call was served, for the /metrics counters.
type outcome int

const (
	outcomeHit       outcome = iota // served from the cache
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
	// Power-of-two shard count: selection is then a shift of the key's top
	// bits, and every key maps to exactly one shard by construction.
	n := 1 << uint(bits.Len(uint(cfg.shards-1)))
	c := &shardedCache{
		shardBits: uint(bits.TrailingZeros(uint(n))),
		disabled:  cfg.maxEntries == 0 || cfg.maxBytes == 0,
		shards:    make([]*cacheShard, n),
	}
	perEntries := (cfg.maxEntries + int64(n) - 1) / int64(n)
	perBytes := (cfg.maxBytes + int64(n) - 1) / int64(n)
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			entries:    make(map[string]*cacheEntry),
			inflight:   make(map[string]*flight),
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
		sh.moveToFrontLocked(e)
		body := e.body
		sh.mu.Unlock()
		return body, outcomeHit, nil
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

// insertLocked adds a freshly computed body at the front of the recency
// list and evicts past the shard's bounds. Callers hold sh.mu. The key is
// never already resident: do inserts only as a flight's leader, and the hit
// check and the flight registration happen under one lock, so a key with an
// entry never starts a flight. The entry just inserted is never the
// eviction victim: a body too large to ever fit is simply not cached, and
// the new entry sits at the head, so the overflow loop reaches it only
// when it is the sole entry, and stops there.
//
//lint:locked mu
func (c *shardedCache) insertLocked(sh *cacheShard, key string, body []byte) {
	if c.disabled {
		return
	}
	n := int64(len(body))
	if n > sh.maxBytes {
		return // can never fit; caching it would evict everything for nothing
	}
	e := &cacheEntry{key: key, body: body}
	sh.entries[key] = e
	sh.pushFrontLocked(e)
	sh.bytes += n
	for (sh.bytes > sh.maxBytes || int64(len(sh.entries)) > sh.maxEntries) && sh.tail != e {
		v := sh.tail
		sh.unlinkLocked(v)
		delete(sh.entries, v.key)
		sh.bytes -= int64(len(v.body))
		sh.evictions.Add(1)
	}
}

//lint:locked mu
func (sh *cacheShard) pushFrontLocked(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

//lint:locked mu
func (sh *cacheShard) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

//lint:locked mu
func (sh *cacheShard) moveToFrontLocked(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlinkLocked(e)
	sh.pushFrontLocked(e)
}

// cacheStats is a point-in-time aggregate view of the cache for /metrics.
type cacheStats struct {
	Hits, Misses, Coalesced, Evictions int64
	Entries                            int
	Bytes                              int64
	Shards                             []shardStats
}

// shardStats is one shard's slice of cacheStats.
type shardStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
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
		st.Evictions = sh.evictions.Load()
		sh.mu.Lock()
		st.Entries = len(sh.entries)
		st.Bytes = sh.bytes
		sh.mu.Unlock()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Coalesced += st.Coalesced
		s.Evictions += st.Evictions
		s.Entries += st.Entries
		s.Bytes += st.Bytes
	}
	return s
}
