package paging

// Naive slice-backed reference oracles for the adaptive kernels. Like
// oracle_test.go's LRU/FIFO oracles, these transcribe the published
// pseudocode as directly as Go allows — slices in recency order (index 0 =
// LRU end, append = MRU end), linear scans, no dense indexes — so a
// disagreement with the array-backed kernels points at intrusive-list or
// list-membership bookkeeping, not at a shared algorithmic misreading.

// oracleARC transcribes the ARC pseudocode (Megiddo & Modha, Fig. 4) with
// the dynamic-capacity generalisation the kernel implements: REPLACE loops
// until a slot is free, and SetCapacity re-establishes the ARC invariants.
type oracleARC struct {
	capacity int64
	p        int64
	t1       []int64 // seen once, resident
	t2       []int64 // seen twice, resident
	b1       []int64 // ghosts of t1
	b2       []int64 // ghosts of t2
	hits     int64
	misses   int64
}

func newOracleARC(capacity int64) *oracleARC {
	return &oracleARC{capacity: capacity}
}

func (a *oracleARC) Len() int64    { return int64(len(a.t1) + len(a.t2)) }
func (a *oracleARC) Misses() int64 { return a.misses }
func (a *oracleARC) Hits() int64   { return a.hits }

func oracleIndex(s []int64, block int64) int {
	for i, v := range s {
		if v == block {
			return i
		}
	}
	return -1
}

func oracleDelete(s []int64, i int) []int64 { return append(s[:i], s[i+1:]...) }

func (a *oracleARC) replaceOne(inB2 bool) {
	t1 := int64(len(a.t1))
	if t1 > 0 && (t1 > a.p || (inB2 && t1 == a.p) || len(a.t2) == 0) {
		a.b1 = append(a.b1, a.t1[0])
		a.t1 = a.t1[1:]
		return
	}
	a.b2 = append(a.b2, a.t2[0])
	a.t2 = a.t2[1:]
}

func (a *oracleARC) replace(inB2 bool) {
	for a.Len() >= a.capacity {
		a.replaceOne(inB2)
	}
}

func (a *oracleARC) Access(block int64) bool {
	if i := oracleIndex(a.t1, block); i >= 0 {
		a.hits++
		a.t1 = oracleDelete(a.t1, i)
		a.t2 = append(a.t2, block)
		return true
	}
	if i := oracleIndex(a.t2, block); i >= 0 {
		a.hits++
		a.t2 = oracleDelete(a.t2, i)
		a.t2 = append(a.t2, block)
		return true
	}
	if i := oracleIndex(a.b1, block); i >= 0 {
		a.misses++
		delta := int64(len(a.b2)) / int64(len(a.b1))
		if delta < 1 {
			delta = 1
		}
		a.p += delta
		if a.p > a.capacity {
			a.p = a.capacity
		}
		a.replace(false)
		a.b1 = oracleDelete(a.b1, i)
		a.t2 = append(a.t2, block)
		return false
	}
	if i := oracleIndex(a.b2, block); i >= 0 {
		a.misses++
		delta := int64(len(a.b1)) / int64(len(a.b2))
		if delta < 1 {
			delta = 1
		}
		a.p -= delta
		if a.p < 0 {
			a.p = 0
		}
		a.replace(true)
		a.b2 = oracleDelete(a.b2, i)
		a.t2 = append(a.t2, block)
		return false
	}
	a.misses++
	if l1 := int64(len(a.t1) + len(a.b1)); l1 >= a.capacity {
		if len(a.b1) > 0 {
			a.b1 = a.b1[1:]
			a.replace(false)
		} else {
			a.t1 = a.t1[1:]
		}
	} else if total := a.Len() + int64(len(a.b1)+len(a.b2)); total >= a.capacity {
		if total >= 2*a.capacity {
			a.b2 = a.b2[1:]
		}
		a.replace(false)
	}
	a.t1 = append(a.t1, block)
	return false
}

func (a *oracleARC) SetCapacity(capacity int64) {
	a.capacity = capacity
	if a.p > capacity {
		a.p = capacity
	}
	for a.Len() > capacity {
		a.replaceOne(false)
	}
	for int64(len(a.t1)+len(a.b1)) > capacity {
		a.b1 = a.b1[1:]
	}
	for a.Len()+int64(len(a.b1)+len(a.b2)) > 2*capacity {
		if len(a.b2) > 0 {
			a.b2 = a.b2[1:]
		} else {
			a.b1 = a.b1[1:]
		}
	}
}

func (a *oracleARC) Clear() {
	a.t1, a.t2, a.b1, a.b2 = nil, nil, nil, nil
	a.p = 0
}

func (a *oracleARC) residentSet() map[int64]bool {
	set := make(map[int64]bool, a.Len())
	for _, b := range a.t1 {
		set[b] = true
	}
	for _, b := range a.t2 {
		set[b] = true
	}
	return set
}

// oracle2Q transcribes the full-version 2Q pseudocode (Johnson & Shasha)
// with the kernel's dynamic tuning: Kin = max(1, resident/4), Kout =
// max(1, capacity/2).
type oracle2Q struct {
	capacity int64
	a1in     []int64 // probation FIFO, resident
	a1out    []int64 // ghost FIFO
	am       []int64 // main LRU, resident
	hits     int64
	misses   int64
}

func newOracle2Q(capacity int64) *oracle2Q {
	return &oracle2Q{capacity: capacity}
}

func (q *oracle2Q) Len() int64    { return int64(len(q.a1in) + len(q.am)) }
func (q *oracle2Q) Misses() int64 { return q.misses }
func (q *oracle2Q) Hits() int64   { return q.hits }

func (q *oracle2Q) kin() int64 {
	k := q.Len() / 4
	if k < 1 {
		k = 1
	}
	return k
}

func (q *oracle2Q) kout() int64 {
	k := q.capacity / 2
	if k < 1 {
		k = 1
	}
	return k
}

func (q *oracle2Q) evictOne() {
	if n := int64(len(q.a1in)); n > 0 && (n > q.kin() || len(q.am) == 0) {
		q.a1out = append(q.a1out, q.a1in[0])
		q.a1in = q.a1in[1:]
		for int64(len(q.a1out)) > q.kout() {
			q.a1out = q.a1out[1:]
		}
		return
	}
	if len(q.am) > 0 {
		q.am = q.am[1:]
	}
}

func (q *oracle2Q) Access(block int64) bool {
	if i := oracleIndex(q.am, block); i >= 0 {
		q.hits++
		q.am = oracleDelete(q.am, i)
		q.am = append(q.am, block)
		return true
	}
	if oracleIndex(q.a1in, block) >= 0 {
		q.hits++
		return true
	}
	if i := oracleIndex(q.a1out, block); i >= 0 {
		q.misses++
		q.a1out = oracleDelete(q.a1out, i)
		if q.Len() >= q.capacity {
			q.evictOne()
		}
		q.am = append(q.am, block)
		return false
	}
	q.misses++
	if q.Len() >= q.capacity {
		q.evictOne()
	}
	q.a1in = append(q.a1in, block)
	return false
}

func (q *oracle2Q) SetCapacity(capacity int64) {
	q.capacity = capacity
	for q.Len() > capacity {
		q.evictOne()
	}
	for int64(len(q.a1out)) > q.kout() {
		q.a1out = q.a1out[1:]
	}
}

func (q *oracle2Q) Clear() {
	q.a1in, q.a1out, q.am = nil, nil, nil
}

func (q *oracle2Q) residentSet() map[int64]bool {
	set := make(map[int64]bool, q.Len())
	for _, b := range q.a1in {
		set[b] = true
	}
	for _, b := range q.am {
		set[b] = true
	}
	return set
}
