package paging

// blockLists is the set of intrusive block lists the LRU, ARC and 2Q
// kernels keep their linked queues in (2Q keeps A1in in a blockRing, but
// marks its blocks here too). A block is on at most one list at a time,
// so one node per block ID holds both its links and the list it is on: a
// membership test and the unlink that usually follows it read the same
// node. Lists are numbered from 1 (0 means "on no list"); a list's head is
// its most recently pushed end, its tail the least.
//
// The index is dense, like every kernel's: nodes[block] for block IDs
// below len(nodes), grown geometrically (or once, by reserve) and never
// shrunk. Links are int32, so block IDs must stay below 2^31; reserve
// panics past that rather than let a link truncate.
type blockLists struct {
	nodes []listNode
	ends  [maxLists + 1]listEnds // indexed by list number; ends[0] unused
}

// maxLists is the most lists a kernel keeps (ARC's T1, T2, B1 and B2).
const maxLists = 4

// listNode is one block's links and list number.
type listNode struct {
	prev, next int32 // nilNode at a list's ends
	list       uint8 // 0 when the block is on no list
}

// listEnds is one list's head, tail and length.
type listEnds struct {
	head, tail int32
	size       int64
}

const nilNode = int32(-1)

// newBlockLists returns an empty list set with no index.
func newBlockLists() blockLists {
	var b blockLists
	b.clearEnds()
	return b
}

func (b *blockLists) clearEnds() {
	for i := range b.ends {
		b.ends[i] = listEnds{head: nilNode, tail: nilNode}
	}
}

// on reports the list block is on: 0 for none, including any ID outside
// the index (negative, or past it), which grows nothing.
func (b *blockLists) on(block int64) uint8 {
	if uint64(block) >= uint64(len(b.nodes)) {
		return 0
	}
	return b.nodes[block].list
}

// pushFront links block s at the head of list li. s must not be linked
// into any list; a 2Q A1in mark, which has no links, is overwritten.
func (b *blockLists) pushFront(li uint8, s int32) {
	e := &b.ends[li]
	n := &b.nodes[s]
	n.prev, n.next, n.list = nilNode, e.head, li
	if e.head != nilNode {
		b.nodes[e.head].prev = s
	} else {
		e.tail = s
	}
	e.head = s
	e.size++
}

// unlink takes block s off the list it is on.
func (b *blockLists) unlink(s int32) {
	n := &b.nodes[s]
	e := &b.ends[n.list]
	if n.prev != nilNode {
		b.nodes[n.prev].next = n.next
	} else {
		e.head = n.next
	}
	if n.next != nilNode {
		b.nodes[n.next].prev = n.prev
	} else {
		e.tail = n.prev
	}
	e.size--
	n.list = 0
}

// moveToFront moves block s, on some list, to the head of list li.
func (b *blockLists) moveToFront(li uint8, s int32) {
	if b.ends[li].head == s {
		return
	}
	b.unlink(s)
	b.pushFront(li, s)
}

// popTail unlinks list li's tail and returns it; li must not be empty.
// It is unlink knowing the node is the tail: evictions are most of the
// unlinks on a missing replay.
func (b *blockLists) popTail(li uint8) int32 {
	e := &b.ends[li]
	s := e.tail
	n := &b.nodes[s]
	if e.tail = n.prev; n.prev != nilNode {
		b.nodes[n.prev].next = nilNode
	} else {
		e.head = nilNode
	}
	e.size--
	n.list = 0
	return s
}

// clear takes every block off every list, touching only listed nodes.
func (b *blockLists) clear() {
	for li := range b.ends {
		for s := b.ends[li].head; s != nilNode; s = b.nodes[s].next {
			b.nodes[s].list = 0
		}
	}
	b.clearEnds()
}

// reserve grows the index to cover block IDs up to maxBlock: at least
// doubling, so growth on a miss amortises to O(1) per access. The kernels
// call it only when a miss brings in a block past the index, or from
// Reserve.
//
//go:noinline
func (b *blockLists) reserve(maxBlock int64) {
	if maxBlock < int64(len(b.nodes)) {
		return
	}
	if maxBlock > int64(^uint32(0)>>1) {
		panic("paging: block ID past the kernels' 2^31 index")
	}
	n := int64(len(b.nodes)) * 2
	if n <= maxBlock {
		n = maxBlock + 1
	}
	//lint:ignore hotpath geometric index growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]listNode, n)
	copy(grown, b.nodes)
	b.nodes = grown
}

// blockRing is a first-in-first-out queue of block IDs for the queues that
// only ever lose their oldest entry: FIFO's resident blocks and 2Q's
// probation queue A1in. Its length is a power of two, so advancing an
// index is a mask, not a division, and an entry is one int32 with no
// links to maintain.
type blockRing struct {
	buf  []int32 // len is 0 or a power of two
	head int     // index of the oldest entry
	size int
}

// full reports whether the ring must grow before the next push. Callers
// check it themselves, so that push stays small enough to inline.
func (r *blockRing) full() bool { return r.size == len(r.buf) }

// push appends s as the newest entry; the ring must not be full.
func (r *blockRing) push(s int32) {
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = s
	r.size++
}

// pop removes and returns the oldest entry; the ring must not be empty.
func (r *blockRing) pop() int32 {
	s := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return s
}

// grow doubles the full ring (to at least 8 slots), unwrapping it so the
// oldest entry lands at index 0. The ring stops growing once it covers the
// longest queue, so growth amortises to O(1) per push.
//
//go:noinline
func (r *blockRing) grow() {
	n := 2 * len(r.buf)
	if n < 8 {
		n = 8
	}
	//lint:ignore hotpath geometric ring growth amortises to O(1) per push; the ring stops growing once sized to the longest queue
	grown := make([]int32, n)
	k := copy(grown, r.buf[r.head:])
	copy(grown[k:], r.buf[:r.head])
	r.buf = grown
	r.head = 0
}
