package paging

import (
	"strings"
	"testing"

	"repro/internal/xrand"
)

// refPolicy is a deliberately naive reference for the policy adapters: a
// slice of IDs in eviction order, linear-scanned. touchMoves selects LRU
// (touch moves to back) vs FIFO (touch is a no-op).
type refPolicy struct {
	order      []int64
	touchMoves bool
}

func (r *refPolicy) Touch(id int64) {
	if !r.touchMoves {
		return
	}
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.order = append(r.order, id)
			return
		}
	}
}

func (r *refPolicy) Insert(id int64) { r.order = append(r.order, id) }

func (r *refPolicy) Victim() int64 {
	if len(r.order) == 0 {
		return -1
	}
	return r.order[0]
}

func (r *refPolicy) Remove(id int64) bool {
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refPolicy) Len() int64 { return int64(len(r.order)) }

// policyRef is the surface a naive reference model implements — the
// external-bound Touch/Insert/Victim/Remove/Len methods, nothing more.
type policyRef interface {
	Touch(id int64)
	Insert(id int64)
	Victim() int64
	Remove(id int64) bool
	Len() int64
}

// refSegmented is the naive reference for the adaptive kernels' adapter
// mode, where both degrade to a segmented LRU: Insert lands in the
// probation segment, Touch promotes to the protected segment's back, and
// the victim rule is pluggable (ARC drains probation first; 2Q keeps
// probation at its Kin entitlement). Slices are in eviction order:
// index 0 is the oldest.
type refSegmented struct {
	probation []int64
	protected []int64
	// twoQVictim selects the 2Q balance rule (probation evicted only while
	// over max(1, len/4)) instead of ARC's probation-first rule.
	twoQVictim bool
}

func removeID(s []int64, id int64) ([]int64, bool) {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...), true
		}
	}
	return s, false
}

func (r *refSegmented) Touch(id int64) {
	var found bool
	if r.probation, found = removeID(r.probation, id); !found {
		if r.protected, found = removeID(r.protected, id); !found {
			return
		}
	}
	r.protected = append(r.protected, id)
}

func (r *refSegmented) Insert(id int64) { r.probation = append(r.probation, id) }

func (r *refSegmented) Victim() int64 {
	if r.twoQVictim {
		kin := (len(r.probation) + len(r.protected)) / 4
		if kin < 1 {
			kin = 1
		}
		if len(r.probation) > 0 && (len(r.probation) > kin || len(r.protected) == 0) {
			return r.probation[0]
		}
		if len(r.protected) > 0 {
			return r.protected[0]
		}
	}
	if len(r.probation) > 0 {
		return r.probation[0]
	}
	if len(r.protected) > 0 {
		return r.protected[0]
	}
	return -1
}

func (r *refSegmented) Remove(id int64) bool {
	var found bool
	if r.probation, found = removeID(r.probation, id); found {
		return true
	}
	r.protected, found = removeID(r.protected, id)
	return found
}

func (r *refSegmented) Len() int64 { return int64(len(r.probation) + len(r.protected)) }

// newPolicyRef returns the naive reference model for a registered policy's
// external-bound (Touch/Insert/Victim/Remove) surface, or nil if none is written yet — which
// fails the test, deliberately: registering a policy means writing its
// reference.
func newPolicyRef(name string) policyRef {
	switch name {
	case "lru":
		return &refPolicy{touchMoves: true}
	case "fifo":
		return &refPolicy{}
	case "arc":
		return &refSegmented{}
	case "2q":
		return &refSegmented{twoQVictim: true}
	}
	return nil
}

// TestPolicyMatchesReference drives each registered policy and its naive
// reference through the same random op sequence — insert, touch, remove a
// random resident ID, evict the victim — and checks victim order and
// length agree at every step. Re-insertion after removal is the case that
// exercises the FIFO kernel's stale-slot machinery.
func TestPolicyMatchesReference(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p, err := NewReplacementPolicy(name, UnboundedCapacity)
			if err != nil {
				t.Fatal(err)
			}
			ref := newPolicyRef(name)
			if ref == nil {
				t.Fatalf("no reference model for registered policy %q — add one to newPolicyRef", name)
			}
			src := xrand.New(xrand.Split(99, "policy-ref", int64(len(name))))

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
				default: // evict the policy's victim
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
}

// TestNewPolicyUnknownName: the one policy constructor rejects an unknown
// name and lists the registry, so a -cache-policy typo is self-diagnosing.
func TestNewPolicyUnknownName(t *testing.T) {
	_, err := NewReplacementPolicy("belady-crystal-ball", UnboundedCapacity)
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered policy %q", err, name)
		}
	}
}

// TestLRUVictimAndRemove pins the kernel-level surface the policy adapter
// rides on: Victim is the tail, Remove unlinks anywhere, and a removed
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

// TestFIFOVictimAndRemove covers the stale-slot path: remove mid-ring,
// re-insert the same block, and check the old slot never resurfaces.
func TestFIFOVictimAndRemove(t *testing.T) {
	f, err := NewFIFO(100)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Victim(); v != -1 {
		t.Fatalf("empty Victim() = %d, want -1", v)
	}
	for b := int64(0); b < 4; b++ {
		f.Access(b)
	}
	f.Access(0) // hit; FIFO order unchanged
	if v := f.Victim(); v != 0 {
		t.Fatalf("Victim() = %d, want fetch-order oldest (0)", v)
	}
	if !f.Remove(1) || f.Remove(1) {
		t.Fatal("Remove(1) should succeed exactly once")
	}
	f.Access(1) // re-insert: now newest; the stale slot for 1 sits mid-ring
	if f.Len() != 4 {
		t.Fatalf("Len() = %d, want 4 after re-insert", f.Len())
	}
	for _, w := range []int64{0, 2, 3, 1} {
		v := f.Victim()
		if v != w {
			t.Fatalf("Victim() = %d, want %d", v, w)
		}
		f.Remove(v)
	}
	if f.Len() != 0 || f.Victim() != -1 {
		t.Fatalf("cache not empty after removing all: len=%d victim=%d", f.Len(), f.Victim())
	}
}
