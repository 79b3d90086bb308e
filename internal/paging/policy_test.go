package paging

import (
	"strings"
	"testing"

	"repro/internal/xrand"
)

// refLRU is a deliberately naive reference for the LRU's external-bound
// surface: a slice of IDs in eviction order (index 0 is the least recently
// used), linear-scanned.
type refLRU struct {
	order []int64
}

func (r *refLRU) Touch(id int64) {
	if r.Remove(id) {
		r.order = append(r.order, id)
	}
}

func (r *refLRU) Insert(id int64) { r.order = append(r.order, id) }

func (r *refLRU) Victim() int64 {
	if len(r.order) == 0 {
		return -1
	}
	return r.order[0]
}

func (r *refLRU) Remove(id int64) bool {
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refLRU) Len() int64 { return int64(len(r.order)) }

// TestPolicyMatchesReference drives an LRU built at UnboundedCapacity and
// its naive reference through the same random op sequence — insert, touch,
// remove a random resident ID, evict the victim — and checks victim order
// and length agree at every step. This is the surface the service's result
// cache orders its evictions through.
func TestPolicyMatchesReference(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		p, err := NewLRU(UnboundedCapacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLRU{}
		src := xrand.New(xrand.Split(99, "policy-ref", 3))

		resident := map[int64]bool{}
		var ids []int64 // resident IDs, arbitrary order
		pick := func() int64 { return ids[src.Intn(len(ids))] }
		drop := func(id int64) {
			delete(resident, id)
			for i, v := range ids {
				if v == id {
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
					return
				}
			}
		}

		const universe = 24
		for op := 0; op < 4000; op++ {
			switch k := src.Intn(4); {
			case k == 0 || len(ids) == 0: // insert a non-resident ID
				id := int64(src.Intn(universe))
				for resident[id] {
					id = int64(src.Intn(universe))
				}
				p.Insert(id)
				ref.Insert(id)
				resident[id] = true
				ids = append(ids, id)
			case k == 1: // touch a resident ID
				id := pick()
				p.Touch(id)
				ref.Touch(id)
			case k == 2: // remove a random resident ID
				id := pick()
				got, want := p.Remove(id), ref.Remove(id)
				if got != want {
					t.Fatalf("op %d: Remove(%d) = %v, reference %v", op, id, got, want)
				}
				drop(id)
			default: // evict the victim
				got, want := p.Victim(), ref.Victim()
				if got != want {
					t.Fatalf("op %d: Victim() = %d, reference %d", op, got, want)
				}
				if got >= 0 {
					p.Remove(got)
					ref.Remove(got)
					drop(got)
				}
			}
			if got, want := p.Victim(), ref.Victim(); got != want {
				t.Fatalf("op %d: post-op Victim() = %d, reference %d", op, got, want)
			}
			if got, want := p.Len(), ref.Len(); got != want {
				t.Fatalf("op %d: Len() = %d, reference %d", op, got, want)
			}
		}
	})
}

// TestNewPolicyUnknownName: the one policy constructor rejects an unknown
// name and lists the registry, so a -policy typo is self-diagnosing.
func TestNewPolicyUnknownName(t *testing.T) {
	_, err := NewReplacementPolicy("belady-crystal-ball", 1)
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %q", err, name)
		}
	}
}

// TestLRUVictimAndRemove pins the external-bound surface at a finite
// capacity: Victim is the tail, Remove unlinks anywhere, and a removed
// block's node is recycled.
func TestLRUVictimAndRemove(t *testing.T) {
	l, err := NewLRU(100)
	if err != nil {
		t.Fatal(err)
	}
	if v := l.Victim(); v != -1 {
		t.Fatalf("empty Victim() = %d, want -1", v)
	}
	if l.Remove(3) {
		t.Fatal("Remove on empty cache reported residency")
	}
	for b := int64(0); b < 4; b++ {
		l.Access(b)
	}
	if v := l.Victim(); v != 0 {
		t.Fatalf("Victim() = %d, want oldest (0)", v)
	}
	l.Access(0) // touch: 1 is now LRU
	if v := l.Victim(); v != 1 {
		t.Fatalf("Victim() after touch = %d, want 1", v)
	}
	if !l.Remove(2) || l.Remove(2) {
		t.Fatal("Remove(2) should succeed exactly once")
	}
	if l.Len() != 3 {
		t.Fatalf("Len() = %d after removing 1 of 4", l.Len())
	}
	// Eviction order now 1, 3, 0.
	for _, w := range []int64{1, 3, 0} {
		v := l.Victim()
		if v != w {
			t.Fatalf("Victim() = %d, want %d", v, w)
		}
		l.Remove(v)
	}
	if l.Len() != 0 || l.Victim() != -1 {
		t.Fatalf("cache not empty after removing all: len=%d victim=%d", l.Len(), l.Victim())
	}
}
