package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// This file is satellite 1: the sharded cache at 1 shard with the LRU
// policy must be outcome-identical to the old single-mutex resultCache
// (kept verbatim in oracle_cache_test.go) on any recorded operation
// sequence — same hit/miss/coalesce outcome per op, same final entry set.
// The bytes bound is held effectively unbounded because the old cache had
// none; bytes-bound behaviour is covered by the property tests instead.

// diffOp is one recorded cache operation: a do() for key with a
// deterministic body.
type diffOp struct {
	key  string
	body []byte
}

// diffKeys builds n realistic keys — 64-char hex SHA-256 strings, like
// core.CacheKey produces — with deterministic bodies derived from xrand.
func diffKeys(seed uint64, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		sum := sha256.Sum256([]byte(fmt.Sprintf("diff-key-%d", i)))
		key := hex.EncodeToString(sum[:])
		rng := xrand.New(xrand.Split(seed, "diff-body", int64(i)))
		body := make([]byte, 1+rng.Intn(64))
		for j := range body {
			body[j] = byte(rng.Uint64())
		}
		ops[i] = diffOp{key: key, body: body}
	}
	return ops
}

// cacheLike is the shared surface of the oracle and the sharded cache.
type cacheLike interface {
	do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, outcome, error)
	len() int
}

// entrySet returns the sorted keys currently cached.
func entrySet(c cacheLike) []string {
	var keys []string
	switch c := c.(type) {
	case *resultCache:
		c.mu.Lock()
		//lint:ignore maporder sorted below
		for k := range c.entries {
			keys = append(keys, k)
		}
		c.mu.Unlock()
	case *shardedCache:
		for _, sh := range c.shards {
			sh.mu.Lock()
			//lint:ignore maporder sorted below
			for k := range sh.entries {
				keys = append(keys, k)
			}
			sh.mu.Unlock()
		}
	}
	sort.Strings(keys)
	return keys
}

// replay runs the recorded sequence sequentially against c and returns the
// outcome trace.
func replay(t *testing.T, c cacheLike, seq []diffOp) []outcome {
	t.Helper()
	trace := make([]outcome, len(seq))
	for i, op := range seq {
		body, oc, err := c.do(context.Background(), op.key, func() ([]byte, error) {
			return op.body, nil
		})
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.key[:8], err)
		}
		if string(body) != string(op.body) {
			t.Fatalf("op %d (%s): body mismatch", i, op.key[:8])
		}
		trace[i] = oc
	}
	return trace
}

// TestCacheDifferentialSequential replays a recorded, deterministically
// generated operation sequence — a working set about 4× the capacity, with
// a skewed re-reference pattern so hits, misses, and LRU evictions all
// occur — against the old cache and the new one at 1 shard. The outcome
// traces and final entry sets must match exactly.
func TestCacheDifferentialSequential(t *testing.T) {
	const (
		seed     = 0x7001
		nKeys    = 32
		nOps     = 2000
		capacity = 8
	)
	keys := diffKeys(seed, nKeys)
	rng := xrand.New(xrand.Split(seed, "diff-ops"))
	seq := make([]diffOp, nOps)
	for i := range seq {
		// Skew towards low indices: hot keys re-reference often enough to
		// hit, cold keys churn the LRU tail.
		k := rng.Intn(nKeys)
		if rng.Intn(2) == 0 {
			k = rng.Intn(1 + nKeys/4)
		}
		seq[i] = keys[k]
	}

	oracle := newResultCache(capacity)
	sharded, err := newShardedCache(cacheConfig{
		shards:     1,
		maxEntries: capacity,
		maxBytes:   1 << 40, // effectively unbounded, like the oracle
	})
	if err != nil {
		t.Fatal(err)
	}

	oracleTrace := replay(t, oracle, seq)
	shardedTrace := replay(t, sharded, seq)

	hits, misses := 0, 0
	for i := range seq {
		if oracleTrace[i] != shardedTrace[i] {
			t.Fatalf("op %d (%s): oracle outcome %d, sharded outcome %d",
				i, seq[i].key[:8], oracleTrace[i], shardedTrace[i])
		}
		if oracleTrace[i] == outcomeHit {
			hits++
		} else {
			misses++
		}
	}
	// The sequence must actually exercise both paths and eviction, or the
	// equivalence is vacuous.
	if hits == 0 || misses <= nKeys {
		t.Fatalf("degenerate sequence: %d hits, %d misses", hits, misses)
	}
	if oracle.len() != capacity || sharded.len() != capacity {
		t.Fatalf("final sizes: oracle %d, sharded %d, want %d", oracle.len(), sharded.len(), capacity)
	}

	oSet, sSet := entrySet(oracle), entrySet(sharded)
	for i := range oSet {
		if oSet[i] != sSet[i] {
			t.Fatalf("final entry sets diverge at %d: oracle %s, sharded %s", i, oSet[i][:8], sSet[i][:8])
		}
	}
}

// TestCacheDifferentialCoalesce choreographs the concurrent path: while a
// gated leader computes a key, followers arrive and must coalesce in both
// implementations; after release, both report exactly one miss and the
// same follower outcomes.
func TestCacheDifferentialCoalesce(t *testing.T) {
	const followers = 4
	key := diffKeys(0x7002, 1)[0]
	for _, c := range []cacheLike{
		newResultCache(4),
		func() cacheLike {
			sc, err := newShardedCache(cacheConfig{shards: 1, maxEntries: 4, maxBytes: 1 << 40})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}(),
	} {
		started := make(chan struct{})
		release := make(chan struct{})
		leaderOc := make(chan outcome, 1)
		go func() {
			_, oc, _ := c.do(context.Background(), key.key, func() ([]byte, error) {
				close(started)
				<-release
				return key.body, nil
			})
			leaderOc <- oc
		}()
		<-started
		followerOc := make(chan outcome, followers)
		ready := make(chan struct{}, followers)
		for i := 0; i < followers; i++ {
			go func() {
				ready <- struct{}{}
				body, oc, err := c.do(context.Background(), key.key, func() ([]byte, error) {
					t.Error("follower ran the function")
					return nil, nil
				})
				if err != nil || string(body) != string(key.body) {
					t.Errorf("follower: body=%q err=%v", body, err)
				}
				followerOc <- oc
			}()
		}
		for i := 0; i < followers; i++ {
			<-ready
		}
		close(release)
		if oc := <-leaderOc; oc != outcomeMiss {
			t.Errorf("%T leader outcome %d, want miss", c, oc)
		}
		for i := 0; i < followers; i++ {
			// A follower either blocked on the flight (coalesced) or arrived
			// after the fill (hit); both caches expose the same two choices.
			if oc := <-followerOc; oc != outcomeCoalesced && oc != outcomeHit {
				t.Errorf("%T follower outcome %d, want coalesced or hit", c, oc)
			}
		}
		if c.len() != 1 {
			t.Errorf("%T len = %d, want 1", c, c.len())
		}
		if sc, ok := c.(*shardedCache); ok {
			assertBounds(t, sc)
		}
	}
}
