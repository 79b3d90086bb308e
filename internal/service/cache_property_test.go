package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// Property tests over randomized operation sequences, plus a fuzz target
// for shard routing. Each property is checked after every operation, not
// just at the end.

// assertBounds fails if any shard exceeds its bytes or entry bound, if its
// bytes ledger disagrees with the sum of resident body lengths, or if its
// recency list is not a well-formed doubly-linked list over exactly the
// shard's map entries.
func assertBounds(t *testing.T, c *shardedCache) {
	t.Helper()
	for i, sh := range c.shards {
		sh.mu.Lock()
		var sum int64
		for _, e := range sh.entries {
			sum += int64(len(e.body))
		}
		bytes, n := sh.bytes, int64(len(sh.entries))
		maxB, maxE := sh.maxBytes, sh.maxEntries
		listErr := checkRecencyList(sh)
		sh.mu.Unlock()
		if listErr != "" {
			t.Fatalf("shard %d: recency list: %s", i, listErr)
		}
		if bytes != sum {
			t.Fatalf("shard %d: bytes ledger %d, actual %d", i, bytes, sum)
		}
		if bytes > maxB {
			t.Fatalf("shard %d: bytes %d > bound %d", i, bytes, maxB)
		}
		if n > maxE {
			t.Fatalf("shard %d: entries %d > bound %d", i, n, maxE)
		}
	}
}

// checkRecencyList walks sh's list from head to tail and describes the
// first defect it finds, or returns "". Callers hold sh.mu.
func checkRecencyList(sh *cacheShard) string {
	if sh.head != nil && sh.head.prev != nil {
		return "head.prev is not nil"
	}
	if sh.tail != nil && sh.tail.next != nil {
		return "tail.next is not nil"
	}
	if (sh.head == nil) != (sh.tail == nil) {
		return "exactly one of head and tail is nil"
	}
	seen := make(map[*cacheEntry]bool, len(sh.entries))
	var prev *cacheEntry
	for e := sh.head; e != nil; prev, e = e, e.next {
		if seen[e] {
			return fmt.Sprintf("entry %q visited twice", e.key)
		}
		seen[e] = true
		if sh.entries[e.key] != e {
			return fmt.Sprintf("entry %q is linked but not in the map", e.key)
		}
		if e.prev != prev {
			return fmt.Sprintf("entry %q: prev link disagrees with the walk", e.key)
		}
	}
	if prev != sh.tail {
		return "walk from head does not end at tail"
	}
	if len(seen) != len(sh.entries) {
		return fmt.Sprintf("walk visits %d entries, map holds %d", len(seen), len(sh.entries))
	}
	return ""
}

// TestCacheBytesBoundNeverExceeded inserts randomized bodies — including
// some larger than the whole bytes budget — and asserts after every insert
// that no shard exceeds either bound under the cache's LRU order.
func TestCacheBytesBoundNeverExceeded(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const maxBytes = 4096
		c, err := newShardedCache(cacheConfig{shards: 4, maxEntries: 64, maxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(xrand.Split(0x7003, "bytes-bound", 3))
		for i := 0; i < 800; i++ {
			k := rng.Intn(48)
			sum := sha256.Sum256([]byte(fmt.Sprintf("lru-%d", k)))
			key := hex.EncodeToString(sum[:])
			// Body sizes span tiny to beyond the global bound; a body that
			// can never fit must simply not be cached.
			size := rng.Intn(2 * maxBytes)
			_, _, err := c.do(context.Background(), key, func() ([]byte, error) {
				return make([]byte, size), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			assertBounds(t, c)
		}
		// The sequence must have driven the bound, or the property is vacuous.
		if c.stats().Evictions == 0 {
			t.Fatal("no evictions: bytes bound never exercised")
		}
	})
}

// TestCacheShardRoutingCovers checks that realistic keys spread over all
// shards and that routing is stable.
func TestCacheShardRoutingCovers(t *testing.T) {
	c, err := newShardedCache(cacheConfig{shards: 16, maxEntries: 16, maxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(c.shards))
	for i := 0; i < 10000; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("route-%d", i)))
		key := hex.EncodeToString(sum[:])
		s := c.shardFor(key)
		if s2 := c.shardFor(key); s2 != s {
			t.Fatalf("key %s routed to %d then %d", key[:8], s, s2)
		}
		seen[s]++
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("shard %d never selected over 10k keys", i)
		}
	}
}

// FuzzShardRouting: for arbitrary keys (hex or not) routing is
// deterministic, in range, and consistent across repeated calls; for a
// fixed corpus of SHA-256 keys, all shards are reachable (checked in the
// seed-corpus test above — the fuzz body checks the per-key properties).
func FuzzShardRouting(f *testing.F) {
	f.Add("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
	f.Add("E3B0C44298FC1C149AFBF4C8996FB924")
	f.Add("not-hex-at-all")
	f.Add("")
	f.Add("short")
	f.Add("0123456789abcdef")
	caches := make([]*shardedCache, 0, 3)
	for _, n := range []int{1, 4, 16} {
		c, err := newShardedCache(cacheConfig{shards: n, maxEntries: 16, maxBytes: 1 << 20})
		if err != nil {
			f.Fatal(err)
		}
		caches = append(caches, c)
	}
	f.Fuzz(func(t *testing.T, key string) {
		for _, c := range caches {
			s := c.shardFor(key)
			if s < 0 || s >= len(c.shards) {
				t.Fatalf("%d shards: key %q routed out of range: %d", len(c.shards), key, s)
			}
			for i := 0; i < 3; i++ {
				if s2 := c.shardFor(key); s2 != s {
					t.Fatalf("%d shards: key %q routed to %d then %d", len(c.shards), key, s, s2)
				}
			}
		}
	})
}
