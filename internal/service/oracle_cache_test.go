package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// This file preserves the pre-sharding resultCache as a differential-test
// oracle, the same discipline internal/paging uses for its kernels
// (oracle_test.go there keeps the map/heap policies the array kernels
// replaced). The sharded cache at 1 shard with an unbounded bytes budget must be outcome-identical to this implementation
// on any operation sequence; differential_test.go replays recorded
// sequences against both.

// resultCache is the old single-mutex content-addressed store: one lock,
// one intrusive LRU over opaque byte slices, one singleflight table.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*oracleEntry
	head     *oracleEntry // most recently used
	tail     *oracleEntry // least recently used
	inflight map[string]*flight
}

type oracleEntry struct {
	key        string
	body       []byte
	prev, next *oracleEntry
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		entries:  make(map[string]*oracleEntry),
		inflight: make(map[string]*flight),
	}
}

// len reports the number of cached bodies.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// do returns the body for key, computing it with fn on a miss — the old
// cache's contract, kept bit-for-bit so differential runs are faithful.
func (c *resultCache) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		c.mu.Unlock()
		return e.body, outcomeHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.body, outcomeCoalesced, f.err
		case <-ctx.Done():
			return nil, outcomeCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("service: run for key %s panicked: %v\n%s", key, r, debug.Stack())
			}
		}()
		f.body, f.err = fn()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insert(key, f.body)
	}
	c.mu.Unlock()
	close(f.done)
	return f.body, outcomeMiss, f.err
}

// insert adds a body at the front, evicting from the tail past capacity.
// Callers hold c.mu. (Note the capacity<=0 bug the sharded successor
// fixes: with capacity 0 this evicts the entry it just added.)
func (c *resultCache) insert(key string, body []byte) {
	if e, ok := c.entries[key]; ok {
		e.body = body
		c.moveToFront(e)
		return
	}
	e := &oracleEntry{key: key, body: body}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
	}
}

func (c *resultCache) pushFront(e *oracleEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resultCache) unlink(e *oracleEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *resultCache) moveToFront(e *oracleEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
