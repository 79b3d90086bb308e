package paging

import (
	"container/heap"

	"repro/internal/trace"
)

// This file preserves the pre-refactor map/heap policy implementations as
// test oracles. The shipping kernels (lru.go, fifo.go, opt.go) are
// dense-remapped and array-backed; the differential tests in
// differential_test.go check them against these reference versions on
// random traces and capacity schedules.

// oracleLRU is the original map + pointer-linked-list LRU.
type oracleLRU struct {
	capacity int64
	nodes    map[int64]*oracleLRUNode
	head     *oracleLRUNode
	tail     *oracleLRUNode
	misses   int64
	hits     int64
}

type oracleLRUNode struct {
	block      int64
	prev, next *oracleLRUNode
}

func newOracleLRU(capacity int64) *oracleLRU {
	return &oracleLRU{capacity: capacity, nodes: make(map[int64]*oracleLRUNode)}
}

func (l *oracleLRU) Len() int64    { return int64(len(l.nodes)) }
func (l *oracleLRU) Misses() int64 { return l.misses }
func (l *oracleLRU) Hits() int64   { return l.hits }

func (l *oracleLRU) SetCapacity(capacity int64) {
	l.capacity = capacity
	for int64(len(l.nodes)) > l.capacity {
		l.evict()
	}
}

func (l *oracleLRU) Clear() {
	l.nodes = make(map[int64]*oracleLRUNode)
	l.head, l.tail = nil, nil
}

func (l *oracleLRU) Access(block int64) bool {
	if n, ok := l.nodes[block]; ok {
		l.hits++
		l.moveToFront(n)
		return true
	}
	l.misses++
	if int64(len(l.nodes)) >= l.capacity {
		l.evict()
	}
	n := &oracleLRUNode{block: block}
	l.nodes[block] = n
	l.pushFront(n)
	return false
}

func (l *oracleLRU) pushFront(n *oracleLRUNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *oracleLRU) unlink(n *oracleLRUNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *oracleLRU) moveToFront(n *oracleLRUNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

func (l *oracleLRU) evict() {
	if l.tail == nil {
		return
	}
	victim := l.tail
	l.unlink(victim)
	delete(l.nodes, victim.block)
}

// residentSet walks the oracle's recency list front-to-back.
func (l *oracleLRU) residentSet() map[int64]bool {
	set := make(map[int64]bool, len(l.nodes))
	for blk := range l.nodes {
		set[blk] = true
	}
	return set
}

// oracleFIFO is the original map + stale-entry-skipping queue FIFO.
type oracleFIFO struct {
	capacity int64
	resident map[int64]uint64
	queue    []oracleFIFOEntry
	head     int
	seq      uint64
	misses   int64
	hits     int64
}

type oracleFIFOEntry struct {
	block int64
	seq   uint64
}

func newOracleFIFO(capacity int64) *oracleFIFO {
	return &oracleFIFO{capacity: capacity, resident: make(map[int64]uint64)}
}

func (f *oracleFIFO) Len() int64    { return int64(len(f.resident)) }
func (f *oracleFIFO) Misses() int64 { return f.misses }
func (f *oracleFIFO) Hits() int64   { return f.hits }

func (f *oracleFIFO) SetCapacity(capacity int64) {
	f.capacity = capacity
	for int64(len(f.resident)) > f.capacity {
		f.evict()
	}
}

func (f *oracleFIFO) Clear() {
	f.resident = make(map[int64]uint64)
	f.queue = f.queue[:0]
	f.head = 0
}

func (f *oracleFIFO) Access(block int64) bool {
	if _, ok := f.resident[block]; ok {
		f.hits++
		return true
	}
	f.misses++
	if int64(len(f.resident)) >= f.capacity {
		f.evict()
	}
	f.seq++
	f.resident[block] = f.seq
	f.queue = append(f.queue, oracleFIFOEntry{block: block, seq: f.seq})
	return false
}

func (f *oracleFIFO) evict() {
	for f.head < len(f.queue) {
		e := f.queue[f.head]
		f.head++
		if cur, ok := f.resident[e.block]; ok && cur == e.seq {
			delete(f.resident, e.block)
			break
		}
	}
}

func (f *oracleFIFO) residentSet() map[int64]bool {
	set := make(map[int64]bool, len(f.resident))
	for blk := range f.resident {
		set[blk] = true
	}
	return set
}

// Original container/heap OPT with interface boxing.

type oracleOPTEntry struct {
	block   int64
	nextUse int
}

type oracleOPTHeap []oracleOPTEntry

func (h oracleOPTHeap) Len() int            { return len(h) }
func (h oracleOPTHeap) Less(i, j int) bool  { return h[i].nextUse > h[j].nextUse }
func (h oracleOPTHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleOPTHeap) Push(x interface{}) { *h = append(*h, x.(oracleOPTEntry)) }
func (h *oracleOPTHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func runOracleOPT(tr *trace.Trace, capacity int64) int64 {
	n := tr.Len()
	if n == 0 {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	nextUse := make([]int, n)
	last := make(map[int64]int, 1024)
	for i := n - 1; i >= 0; i-- {
		blk := tr.Block(i)
		if j, ok := last[blk]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = inf
		}
		last[blk] = i
	}

	resident := make(map[int64]int, capacity)
	h := &oracleOPTHeap{}
	var misses int64
	for i := 0; i < n; i++ {
		blk := tr.Block(i)
		if _, ok := resident[blk]; ok {
			resident[blk] = nextUse[i]
			heap.Push(h, oracleOPTEntry{block: blk, nextUse: nextUse[i]})
			continue
		}
		misses++
		if int64(len(resident)) >= capacity {
			for {
				top := heap.Pop(h).(oracleOPTEntry)
				cur, ok := resident[top.block]
				if !ok || cur != top.nextUse {
					continue
				}
				delete(resident, top.block)
				break
			}
		}
		resident[blk] = nextUse[i]
		heap.Push(h, oracleOPTEntry{block: blk, nextUse: nextUse[i]})
	}
	return misses
}

// oracleOPTBoxes replays tr under the box profile boxes (cycled) with
// farthest-in-future eviction, by explicit box accounting and linear
// scans: a miss with the box's budget spent opens the next box, and a miss
// with as many resident blocks as the box's size evicts, one at a time,
// the resident block whose next use is farthest (never used again counts
// as farthest; ties, which only occur among such blocks, go to the larger
// block ID). Each leaf marker is credited to the box serving its access.
func oracleOPTBoxes(tr *trace.Trace, boxes []int64) []BoxStat {
	nextUse := func(i int, blk int64) int {
		for j := i + 1; j < tr.Len(); j++ {
			if tr.Block(j) == blk {
				return j
			}
		}
		return tr.Len()
	}
	var resident []int64
	var ledger []BoxStat
	bi := 0
	cur := BoxStat{Size: boxes[0]}
	for i := 0; i < tr.Len(); i++ {
		blk := tr.Block(i)
		hit := false
		for _, b := range resident {
			hit = hit || b == blk
		}
		if !hit {
			if cur.IOs == cur.Size {
				ledger = append(ledger, cur)
				bi++
				cur = BoxStat{Size: boxes[bi%len(boxes)]}
			}
			for int64(len(resident)) >= cur.Size {
				v, far := 0, -1
				for k, b := range resident {
					if nu := nextUse(i, b); nu > far || (nu == far && b > resident[v]) {
						v, far = k, nu
					}
				}
				resident = append(resident[:v], resident[v+1:]...)
			}
			resident = append(resident, blk)
			cur.IOs++
		}
		cur.Refs++
		if tr.EndsLeaf(i) {
			cur.Leaves++
		}
	}
	return append(ledger, cur)
}
