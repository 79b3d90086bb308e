package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// newTestCache builds a sharded cache with a huge bytes budget so tests
// that only care about entry counts or singleflight aren't perturbed by
// the bytes bound.
func newTestCache(t *testing.T, shards int, entries int64) *shardedCache {
	t.Helper()
	c, err := newShardedCache(cacheConfig{shards: shards, maxEntries: entries, maxBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustDo(t *testing.T, c *shardedCache, key, val string) outcome {
	t.Helper()
	body, oc, err := c.do(context.Background(), key, func() ([]byte, error) {
		return []byte(val), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if oc != outcomeHit && !bytes.Equal(body, []byte(val)) {
		t.Fatalf("do(%s) = %q, want %q", key, body, val)
	}
	return oc
}

func TestCacheLRUBounded(t *testing.T) {
	// One shard so the global entry bound is exactly the shard's bound and
	// the LRU order is a single total order, like the old resultCache.
	c := newTestCache(t, 1, 3)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if oc := mustDo(t, c, key, key); oc != outcomeMiss {
			t.Errorf("first do(%s): outcome %d, want miss", key, oc)
		}
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want capacity 3", c.len())
	}
	// k0, k1 were evicted in LRU order; k2..k4 survive. Peek at the entries
	// directly: a do() probe would itself reshuffle the LRU order.
	sh := c.shards[0]
	sh.mu.Lock()
	for i, want := range []bool{false, false, true, true, true} {
		key := fmt.Sprintf("k%d", i)
		if _, ok := sh.entries[key]; ok != want {
			t.Errorf("entry %s present=%v, want %v", key, ok, want)
		}
	}
	sh.mu.Unlock()
	if got := sh.evictions.Load(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}

func TestCacheTouchMovesToFront(t *testing.T) {
	c := newTestCache(t, 1, 2)
	mustDo(t, c, "a", "a")
	mustDo(t, c, "b", "b")
	mustDo(t, c, "a", "a") // touch a: b is now LRU
	mustDo(t, c, "c", "c") // evicts b
	if oc := mustDo(t, c, "a", "a"); oc != outcomeHit {
		t.Error("recently touched entry was evicted")
	}
	if oc := mustDo(t, c, "b", "b"); oc != outcomeMiss {
		t.Error("least-recently-used entry survived past capacity")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newTestCache(t, 4, 16)
	boom := errors.New("boom")
	calls := 0
	fn := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, oc, err := c.do(context.Background(), "k", fn); !errors.Is(err, boom) || oc != outcomeMiss {
		t.Fatalf("first do: oc=%d err=%v", oc, err)
	}
	if c.len() != 0 {
		t.Fatal("error was cached")
	}
	body, oc, err := c.do(context.Background(), "k", fn)
	if err != nil || oc != outcomeMiss || string(body) != "ok" {
		t.Fatalf("retry after error: body=%q oc=%d err=%v", body, oc, err)
	}
	if oc := mustDo(t, c, "k", "ok"); oc != outcomeHit {
		t.Error("successful retry was not cached")
	}
}

func TestCacheSingleflightSharesOneRun(t *testing.T) {
	c := newTestCache(t, 4, 16)
	const waiters = 8
	var calls int
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]outcome, waiters)
	bodies := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, oc, err := c.do(context.Background(), "k", func() ([]byte, error) {
				calls++ // no mutex needed: singleflight admits one runner
				<-gate
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i], bodies[i] = oc, body
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	misses := 0
	for i := range outcomes {
		if outcomes[i] == outcomeMiss {
			misses++
		}
		if string(bodies[i]) != "v" {
			t.Errorf("waiter %d got %q", i, bodies[i])
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want exactly 1 (rest coalesce or hit)", misses)
	}
	assertBounds(t, c)
}

func TestCacheCoalescedWaiterHonoursContext(t *testing.T) {
	c := newTestCache(t, 4, 16)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, oc, err := c.do(ctx, "k", func() ([]byte, error) {
		t.Error("follower must not run the function")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || oc != outcomeCoalesced {
		t.Fatalf("cancelled follower: oc=%d err=%v", oc, err)
	}
	close(release)
	<-leaderDone
	// The leader's result still landed in the cache.
	if oc := mustDo(t, c, "k", "v"); oc != outcomeHit {
		t.Error("leader's result missing from cache after follower cancellation")
	}
}

// TestCacheDisabled pins the successor semantics of the old capacity<=0
// bug (satellite 4): a zero entry or bytes bound means "caching disabled",
// not "insert then immediately evict". Every do runs the function, nothing
// is ever stored, and singleflight still works.
func TestCacheDisabled(t *testing.T) {
	for _, cfg := range []cacheConfig{
		{shards: 2, maxEntries: 0, maxBytes: 1 << 20},
		{shards: 2, maxEntries: 16, maxBytes: 0},
	} {
		c, err := newShardedCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.disabled {
			t.Fatalf("cfg %+v: cache not disabled", cfg)
		}
		calls := 0
		for i := 0; i < 3; i++ {
			body, oc, err := c.do(context.Background(), "k", func() ([]byte, error) {
				calls++
				return []byte("v"), nil
			})
			if err != nil || oc != outcomeMiss || string(body) != "v" {
				t.Fatalf("disabled do %d: body=%q oc=%d err=%v", i, body, oc, err)
			}
		}
		if calls != 3 {
			t.Errorf("fn ran %d times, want 3 (no caching)", calls)
		}
		if c.len() != 0 {
			t.Errorf("disabled cache stored %d entries", c.len())
		}
	}
}

// TestCacheRejectsBadConfig pins constructor validation: negative bounds
// and a non-positive shard count are errors.
func TestCacheRejectsBadConfig(t *testing.T) {
	cases := []cacheConfig{
		{shards: 0, maxEntries: 1, maxBytes: 1},
		{shards: 1, maxEntries: -1, maxBytes: 1},
		{shards: 1, maxEntries: 1, maxBytes: -1},
	}
	for _, cfg := range cases {
		if _, err := newShardedCache(cfg); err == nil {
			t.Errorf("cfg %+v: accepted, want error", cfg)
		}
	}
}

// TestCacheShardRounding pins the power-of-two rounding of the shard count.
func TestCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		c, err := newShardedCache(cacheConfig{shards: tc.in, maxEntries: 8, maxBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.shards) != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.in, len(c.shards), tc.want)
		}
	}
}
