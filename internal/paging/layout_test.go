package paging

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// Differential tests at the edges of the kernels' layouts: the FIFO ring's
// power-of-two wrap and growth, capacities on either side of a power of two
// under oscillating capacity and clears, ghost hits that unlink a block
// from the middle of its queue, and replays of E13's own MM-Scan trace.
// Every kernel is checked against its oracle after every access.

// oracleKernel is the surface the map- and slice-backed oracles share.
type oracleKernel interface {
	Access(block int64) bool
	SetCapacity(capacity int64)
	Clear()
	Len() int64
	Hits() int64
	Misses() int64
	residentSet() map[int64]bool
}

// kernelTwin is a registered kernel driven in lockstep with its oracle.
type kernelTwin struct {
	name     string
	k        ReplacementPolicy
	o        oracleKernel
	accesses int
}

func newKernelTwin(t testing.TB, name string, capacity int64) *kernelTwin {
	t.Helper()
	k, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	var o oracleKernel
	switch name {
	case "lru":
		o = newOracleLRU(capacity)
	case "fifo":
		o = newOracleFIFO(capacity)
	case "arc":
		o = newOracleARC(capacity)
	case "2q":
		o = newOracle2Q(capacity)
	default:
		t.Fatalf("no oracle for kernel %q", name)
	}
	return &kernelTwin{name: name, k: k, o: o}
}

// access serves blk through both and checks they agree on the outcome,
// the resident count and, for ARC, the adaptive target.
func (w *kernelTwin) access(t testing.TB, blk int64) {
	t.Helper()
	w.accesses++
	if got, want := w.k.Access(blk), w.o.Access(blk); got != want {
		t.Fatalf("%s access %d (block %d): hit=%v, oracle %v", w.name, w.accesses, blk, got, want)
	}
	if w.k.Len() != w.o.Len() || w.k.Len() > w.k.Capacity() {
		t.Fatalf("%s access %d: len %d (capacity %d), oracle %d", w.name, w.accesses, w.k.Len(), w.k.Capacity(), w.o.Len())
	}
	if a, ok := w.k.(*ARC); ok && a.Target() != w.o.(*oracleARC).p {
		t.Fatalf("arc access %d: target p=%d, oracle %d", w.accesses, a.Target(), w.o.(*oracleARC).p)
	}
}

func (w *kernelTwin) setCapacity(t testing.TB, c int64) {
	t.Helper()
	if err := w.k.SetCapacity(c); err != nil {
		t.Fatal(err)
	}
	w.o.SetCapacity(c)
}

func (w *kernelTwin) clear() {
	w.k.Clear()
	w.o.Clear()
}

// check compares the counters and the resident sets over [0, universe).
func (w *kernelTwin) check(t testing.TB, universe int64) {
	t.Helper()
	if w.k.Hits() != w.o.Hits() || w.k.Misses() != w.o.Misses() {
		t.Fatalf("%s: hits/misses %d/%d, oracle %d/%d", w.name, w.k.Hits(), w.k.Misses(), w.o.Hits(), w.o.Misses())
	}
	want := w.o.residentSet()
	for b := int64(0); b < universe; b++ {
		if w.k.Contains(b) != want[b] {
			t.Fatalf("%s: block %d resident=%v, oracle %v", w.name, b, w.k.Contains(b), want[b])
		}
	}
}

// TestKernelsMatchOraclesAroundPowersOfTwo replays every kernel at
// capacities on either side of 4, 8 and 64 while the capacity oscillates
// (down to half, up to double, one either side) and the cache is cleared
// now and then, so FIFO's ring wraps, grows and shrinks its live window
// at every ring size, and the list kernels relink around every eviction.
func TestKernelsMatchOraclesAroundPowersOfTwo(t *testing.T) {
	for _, name := range PolicyNames() {
		for _, c := range []int64{3, 4, 5, 7, 8, 9, 63, 64, 65} {
			t.Run(fmt.Sprintf("%s/c=%d", name, c), func(t *testing.T) {
				src := xrand.New(xrand.Split(70, "layout-caps", c))
				universe := 3*c + 5
				tr := localTrace(src, 60*int(c)+600, universe)
				caps := []int64{c - 1, 2 * c, c, c/2 + 1, c + 1, c}
				w := newKernelTwin(t, name, c)
				for i := 0; i < tr.Len(); i++ {
					switch {
					case i%211 == 210:
						w.clear()
					case i%53 == 52:
						w.setCapacity(t, caps[(i/53)%len(caps)])
					}
					w.access(t, tr.Block(i))
				}
				w.check(t, universe)
			})
		}
	}
}

// TestFIFORingWrapsAndGrowsAcrossPowersOfTwo steps FIFO's capacity from 1
// up to 130 and back, cycling more distinct blocks than fit at each step,
// so the ring wraps at every capacity and grows from 8 to 256 slots while
// its oldest block sits mid-ring. After every access the ring's length is
// a power of two covering the resident blocks.
func TestFIFORingWrapsAndGrowsAcrossPowersOfTwo(t *testing.T) {
	const top = 130
	w := newKernelTwin(t, "fifo", 1)
	f := w.k.(*FIFO)
	var wrappedGrowths int
	step := func(c int64) {
		w.setCapacity(t, c)
		for r := int64(0); r < 2*(c+1)+3; r++ {
			blk := (r*7 + c) % (c + 2)
			r := &f.ring
			if r.size == len(r.buf) && int64(r.size) < c && r.head != 0 && !f.Contains(blk) {
				wrappedGrowths++
			}
			w.access(t, blk)
			if n := len(r.buf); n&(n-1) != 0 || r.size > n || r.head >= n {
				t.Fatalf("capacity %d: ring of %d slots holding %d from index %d", c, n, r.size, r.head)
			}
		}
	}
	for c := int64(1); c <= top; c++ {
		step(c)
	}
	for c := int64(top); c >= 1; c-- {
		step(c)
	}
	w.check(t, top+2)
	if len(f.ring.buf) != 256 {
		t.Fatalf("ring grew to %d slots, want 256", len(f.ring.buf))
	}
	if wrappedGrowths == 0 {
		t.Fatal("the ring never grew while wrapped")
	}
}

// TestGhostHitsUnlinkFromQueueMiddle replays ARC and 2Q against their
// oracles over traces that re-reference recently evicted blocks, and
// requires ghost hits on blocks in the middle of their queue (neither
// head nor tail) to have happened: B1 and B2 for ARC, A1out for 2Q.
func TestGhostHitsUnlinkFromQueueMiddle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ghosts []uint8
	}{
		{"arc", []uint8{arcB1, arcB2}},
		{"2q", []uint8{twoQA1out}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			middle := map[uint8]int{}
			for trial := int64(0); trial < 8; trial++ {
				src := xrand.New(xrand.Split(71, "layout-ghosts", trial))
				c := 6 + src.Int63n(20)
				universe := 3 * c
				tr := localTrace(src, 3000, universe)
				w := newKernelTwin(t, tc.name, c)
				var lists *blockLists
				switch k := w.k.(type) {
				case *ARC:
					lists = &k.blockLists
				case *TwoQ:
					lists = &k.blockLists
				}
				for i := 0; i < tr.Len(); i++ {
					blk := tr.Block(i)
					if li := lists.on(blk); slices.Contains(tc.ghosts, li) {
						if n := lists.nodes[blk]; n.prev != nilNode && n.next != nilNode {
							middle[li]++
						}
					}
					if i%401 == 400 {
						w.setCapacity(t, 6+src.Int63n(20))
					}
					w.access(t, blk)
				}
				w.check(t, universe)
			}
			for _, li := range tc.ghosts {
				if middle[li] == 0 {
					t.Errorf("no ghost hit in the middle of list %d", li)
				}
			}
		})
	}
}

// TestKernelsMatchOraclesOnE13Slices replays windows of E13's dim-64
// MM-Scan trace — its start, middle and end — through every kernel and its
// oracle at capacities across E13's sweep.
func TestKernelsMatchOraclesOnE13Slices(t *testing.T) {
	tr := e13Trace(t, 64)
	const window = 6000
	for _, name := range PolicyNames() {
		for _, c := range []int64{8, 33, 64, 136} {
			for _, lo := range []int{0, tr.Len()/2 - window/2, tr.Len() - window} {
				w := newKernelTwin(t, name, c)
				for i := lo; i < lo+window; i++ {
					w.access(t, tr.Block(i))
				}
				w.check(t, tr.MaxBlock()+1)
			}
		}
	}
}

// TestKernelsRejectBlockIDsPast2to31: the kernels' links and ring entries
// are int32, so a block ID of 2^31 or more panics when it would grow the
// index, before any memory is allocated for it, rather than truncate.
func TestKernelsRejectBlockIDsPast2to31(t *testing.T) {
	for _, name := range PolicyNames() {
		for _, op := range []string{"Reserve", "Access"} {
			t.Run(name+"/"+op, func(t *testing.T) {
				k, err := NewReplacementPolicy(name, 4)
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if recover() == nil {
						t.Fatalf("%s %s(1<<31) did not panic", name, op)
					}
				}()
				if op == "Reserve" {
					k.Reserve(1 << 31)
				} else {
					k.Access(1 << 31)
				}
			})
		}
	}
}
