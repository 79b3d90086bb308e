package paging

import (
	"reflect"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Differential tests: the dense array-backed kernels must agree exactly —
// per access, not just in aggregate — with the original map/heap
// implementations kept in oracle_test.go.

func TestLRUMatchesOracle(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		src := xrand.New(xrand.Split(47, "lru-diff", int64(trial)))
		tr := localTrace(src, 600, 1+src.Int63n(96))
		sched := randomSchedule(src, tr.Len(), 32)

		capacity := 1 + src.Int63n(24)
		l, err := NewLRU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracleLRU(capacity)
		for i := 0; i < tr.Len(); i++ {
			if c, ok := sched[i]; ok {
				if err := l.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
				o.SetCapacity(c)
			}
			if i%97 == 0 {
				l.Clear()
				o.Clear()
			}
			got, want := l.Access(tr.Block(i)), o.Access(tr.Block(i))
			if got != want {
				t.Fatalf("trial %d, access %d (block %d): hit=%v, oracle %v",
					trial, i, tr.Block(i), got, want)
			}
			if l.Len() != o.Len() {
				t.Fatalf("trial %d, access %d: len %d, oracle %d", trial, i, l.Len(), o.Len())
			}
		}
		if l.Hits() != o.Hits() || l.Misses() != o.Misses() {
			t.Fatalf("trial %d: counters %d/%d, oracle %d/%d",
				trial, l.Hits(), l.Misses(), o.Hits(), o.Misses())
		}
		want := o.residentSet()
		for blk := range resident(l) {
			if !want[blk] {
				t.Fatalf("trial %d: block %d resident but not in oracle", trial, blk)
			}
		}
	}
}

func TestFIFOMatchesOracle(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		src := xrand.New(xrand.Split(48, "fifo-diff", int64(trial)))
		tr := localTrace(src, 600, 1+src.Int63n(96))
		sched := randomSchedule(src, tr.Len(), 32)

		capacity := 1 + src.Int63n(24)
		f, err := NewFIFO(capacity)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracleFIFO(capacity)
		for i := 0; i < tr.Len(); i++ {
			if c, ok := sched[i]; ok {
				if err := f.SetCapacity(c); err != nil {
					t.Fatal(err)
				}
				o.SetCapacity(c)
			}
			got, want := f.Access(tr.Block(i)), o.Access(tr.Block(i))
			if got != want {
				t.Fatalf("trial %d, access %d (block %d): hit=%v, oracle %v",
					trial, i, tr.Block(i), got, want)
			}
			if f.Len() != o.Len() {
				t.Fatalf("trial %d, access %d: len %d, oracle %d", trial, i, f.Len(), o.Len())
			}
		}
		if f.Hits() != o.Hits() || f.Misses() != o.Misses() {
			t.Fatalf("trial %d: counters %d/%d, oracle %d/%d",
				trial, f.Hits(), f.Misses(), o.Hits(), o.Misses())
		}
	}
}

func TestOPTMatchesOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := xrand.New(xrand.Split(49, "opt-diff", int64(trial)))
		tr := localTrace(src, 500, 1+src.Int63n(64))
		for _, capacity := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
			got, err := RunPolicyFixed(OPTReplayName, tr, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if want := runOracleOPT(tr, capacity); got != want {
				t.Fatalf("trial %d, capacity %d: %d misses, oracle %d", trial, capacity, got, want)
			}
		}
	}
}

// FuzzKernelsMatchOracles drives all three kernels and their oracles from
// fuzz-chosen reference strings and capacity schedules. Bytes < 200 are
// block references (universe of 64); bytes >= 200 also retarget the
// capacity first, so growth, shrink-eviction, and refetch paths all get
// exercised. Bytes divisible by 5 also end a leaf. The same string then
// drives OPT at fixed capacity and the opt box replay under a profile
// drawn from its bytes, each against its oracle, and the one-pass LRU and
// OPT fault curves against fixed replays at every capacity up to 24.
func FuzzKernelsMatchOracles(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 200, 1, 4, 5, 1}, uint8(3))
	f.Add([]byte{0, 0, 0, 255, 7, 7, 201, 63, 0, 7}, uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, c uint8) {
		capacity := int64(c%16) + 1
		l, err := NewLRU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ol := newOracleLRU(capacity)
		fi, err := NewFIFO(capacity)
		if err != nil {
			t.Fatal(err)
		}
		of := newOracleFIFO(capacity)

		var b trace.Builder
		for i, by := range data {
			if by >= 200 {
				nc := int64(by%24) + 1
				if err := l.SetCapacity(nc); err != nil {
					t.Fatal(err)
				}
				ol.SetCapacity(nc)
				if err := fi.SetCapacity(nc); err != nil {
					t.Fatal(err)
				}
				of.SetCapacity(nc)
			}
			blk := int64(by & 63)
			b.Access(blk)
			if by%5 == 0 {
				b.EndLeaf()
			}
			if gl, wl := l.Access(blk), ol.Access(blk); gl != wl {
				t.Fatalf("LRU access %d (block %d): hit=%v, oracle %v", i, blk, gl, wl)
			}
			if gf, wf := fi.Access(blk), of.Access(blk); gf != wf {
				t.Fatalf("FIFO access %d (block %d): hit=%v, oracle %v", i, blk, gf, wf)
			}
		}
		if l.Len() != ol.Len() || l.Hits() != ol.Hits() || l.Misses() != ol.Misses() {
			t.Fatalf("LRU state %d/%d/%d, oracle %d/%d/%d",
				l.Len(), l.Hits(), l.Misses(), ol.Len(), ol.Hits(), ol.Misses())
		}
		if fi.Len() != of.Len() || fi.Hits() != of.Hits() || fi.Misses() != of.Misses() {
			t.Fatalf("FIFO state %d/%d/%d, oracle %d/%d/%d",
				fi.Len(), fi.Hits(), fi.Misses(), of.Len(), of.Hits(), of.Misses())
		}

		tr := b.Build()
		if tr.Len() == 0 {
			return
		}
		got, err := RunPolicyFixed(OPTReplayName, tr, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if want := runOracleOPT(tr, capacity); got != want {
			t.Fatalf("OPT capacity %d: %d misses, oracle %d", capacity, got, want)
		}
		checkCurves(t, "fuzz", tr, 24)

		boxes := make([]int64, len(data))
		for i, by := range data {
			boxes[i] = int64((by+c)%12) + 1
		}
		bs, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := PolicyRun(OPTReplayName, tr, bs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleOPTBoxes(tr, boxes); !reflect.DeepEqual(ledger, want) {
			t.Fatalf("opt box replay over boxes %v: ledger %+v, oracle %+v", boxes, ledger, want)
		}
	})
}
