package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file holds the square-semantics consumers as trace.Sinks:
// SquareStream (the per-box ledger behind Replay's "square" name) and
// SquareFinisher (references served by a finite box sequence). Generators
// emit straight into them and a materialized trace replays into them
// through the same methods, so streamed and materialized runs share one
// implementation and cannot drift — which is what keeps streamed
// experiment tables byte-identical to materialized ones.

// SquareStream consumes a reference stream under square semantics against
// boxes drawn from a profile source. Feed it accesses (directly or via
// trace.Replay), then call Finish for the per-box statistics. Memory is
// O(max block ID), independent of stream length.
type SquareStream struct {
	src      profile.Source
	maxBoxes int64
	resident []int64 // epoch-stamped from 1: resident[b] == epoch means cached
	epoch    int64
	stats    []BoxStat
	cur      BoxStat
	started  bool
	err      error
	markedAt int64 // cur.Refs total at the last EndLeaf (idempotency)
	refs     int64 // total refs across all boxes, for markedAt
}

// NewSquareStream returns a stream drawing box sizes from src; maxBoxes
// guards against pathological stalls (0 = unbounded).
func NewSquareStream(src profile.Source, maxBoxes int64) *SquareStream {
	return &SquareStream{src: src, maxBoxes: maxBoxes, epoch: 1}
}

// Reserve pre-sizes the residency array for block IDs up to maxBlock.
func (q *SquareStream) Reserve(maxBlock int64) {
	q.resident = growResident(q.resident, maxBlock)
}

// Access serves one block reference under square semantics: first touch of
// a block within a box costs one I/O from the box budget; when the budget
// is exhausted a new box starts with a cleared cache.
//
//lint:hotpath
func (q *SquareStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started {
		q.started = true
		q.cur = BoxStat{Size: q.src.Next()}
		if q.cur.Size < 1 {
			//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
			q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
			return
		}
	}
	if block >= int64(len(q.resident)) {
		q.resident = growResident(q.resident, block)
	}
	if q.resident[block] != q.epoch {
		// Miss: needs an I/O from the current box's budget.
		if q.cur.IOs == q.cur.Size {
			// Budget exhausted: this reference belongs to the next box.
			q.stats = append(q.stats, q.cur)
			if q.maxBoxes > 0 && int64(len(q.stats)) >= q.maxBoxes {
				//lint:ignore hotpath error path: the box guard tripping ends the run
				q.err = fmt.Errorf("paging: run exceeded %d boxes", q.maxBoxes)
				q.started = false
				return
			}
			q.epoch++
			q.cur = BoxStat{Size: q.src.Next()}
			if q.cur.Size < 1 {
				//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
				q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
				q.started = false
				return
			}
		}
		q.resident[block] = q.epoch
		q.cur.IOs++
	}
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (q *SquareStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		q.Access(lo + i)
	}
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access. Idempotent per access, matching trace.Builder. Once the
// stream has errored it is a no-op: the access the marker belongs to was
// never served (Access returns before counting references on the error
// paths), so there is no box to credit — panicking here would blame the
// generator for a profile/guard error, and crediting would mutate a stale
// box. The panic is reserved for the genuine structural bug of a marker
// before any access on a healthy stream.
func (q *SquareStream) EndLeaf() {
	if q.err != nil {
		return
	}
	if q.refs == 0 {
		panic("paging: EndLeaf before any access")
	}
	if q.markedAt == q.refs {
		return
	}
	q.markedAt = q.refs
	q.cur.Leaves++
}

// Stopped reports whether the stream has errored, so stopper-aware replays
// and generators stop feeding a stream that discards everything anyway.
func (q *SquareStream) Stopped() bool { return q.err != nil }

// Finish closes the final (typically partial) box and returns the per-box
// statistics, or the first error the stream hit. An untouched stream
// returns (nil, nil): an empty stream uses no boxes.
func (q *SquareStream) Finish() ([]BoxStat, error) {
	if q.err != nil {
		return q.stats, q.err
	}
	if !q.started {
		return nil, nil
	}
	q.started = false
	q.stats = append(q.stats, q.cur)
	return q.stats, nil
}

// growResident extends an epoch-stamped residency array to cover block.
// Every square-semantics epoch starts at 1, so zero-filled growth means
// "not resident" without a fill pass.
func growResident(resident []int64, block int64) []int64 {
	if block < int64(len(resident)) {
		return resident
	}
	n := int64(len(resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric residency growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int64, n)
	copy(grown, resident)
	return grown
}

// SquareFinisher consumes a reference stream against the first nBoxes
// boxes of a profile source under square semantics and reports how many
// references those boxes served. It is the primitive behind the
// No-Catch-up Lemma check (SquareRunFrom) and the worst-case repetition
// counts (ServedEmitRepeat). Boxes are pulled lazily, so a streamed
// profile is never held in memory; a finite box slice feeds it through a
// profile.BoxesSource. Once the boxes are exhausted (or a box size is
// invalid) the remaining stream is ignored.
type SquareFinisher struct {
	src      profile.Source
	left     int64   // boxes remaining, including the current one
	resident []int64 // epoch-stamped from 1, so zero-filled growth means absent
	epoch    int64
	size     int64
	ios      int64
	served   int64
	done     bool
	err      error
}

// NewSquareFinisher returns a finisher serving at most nBoxes boxes pulled
// from src. The first box is pulled and validated eagerly, so an invalid
// leading box is reported even for an empty stream; with nBoxes <= 0 src
// is never read and nothing is served.
func NewSquareFinisher(src profile.Source, nBoxes int64) *SquareFinisher {
	f := &SquareFinisher{src: src, left: nBoxes, epoch: 1}
	if nBoxes <= 0 {
		f.done = true
		return f
	}
	f.size = src.Next()
	if f.size < 1 {
		f.err = fmt.Errorf("paging: box size %d invalid", f.size)
	}
	return f
}

// Reserve pre-sizes the residency array for block IDs up to maxBlock.
func (f *SquareFinisher) Reserve(maxBlock int64) {
	f.resident = growResident(f.resident, maxBlock)
}

// Access serves one reference, advancing to the next box when the current
// budget is exhausted. References after the last box ends are unserved.
//
//lint:hotpath
func (f *SquareFinisher) Access(block int64) {
	if f.done || f.err != nil {
		return
	}
	if block >= int64(len(f.resident)) {
		f.resident = growResident(f.resident, block)
	}
	if f.resident[block] == f.epoch {
		f.served++
		return
	}
	if f.ios == f.size {
		// Budget exhausted: this reference belongs to the next box.
		f.left--
		if f.left <= 0 {
			f.done = true
			return
		}
		f.size = f.src.Next()
		if f.size < 1 {
			//lint:ignore hotpath error path: an invalid box ends the run, one allocation to say why is fine
			f.err = fmt.Errorf("paging: box size %d invalid", f.size)
			return
		}
		// Fresh square: cache cleared.
		f.epoch++
		f.ios = 0
	}
	f.resident[block] = f.epoch
	f.ios++
	f.served++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (f *SquareFinisher) AccessRange(lo, count int64) {
	for i := int64(0); i < count && !f.done && f.err == nil; i++ {
		f.Access(lo + i)
	}
}

// EndLeaf is a no-op: the finisher measures progress in references served,
// not base cases.
func (f *SquareFinisher) EndLeaf() {}

// Served reports how many stream references the boxes served so far.
func (f *SquareFinisher) Served() int64 { return f.served }

// Stopped reports whether further accesses would be ignored — the boxes ran
// out or a box size was invalid. Replay/ReplayRange/ReplayRepeat halt at
// this boundary instead of streaming the rest of the trace into a finisher
// that discards it, which turns the No-Catch-up sweep from quadratic into
// O(refs actually served) per start index.
func (f *SquareFinisher) Stopped() bool { return f.done || f.err != nil }

// Err reports the first invalid-box error, if any.
func (f *SquareFinisher) Err() error { return f.err }

// ServedEmitRepeat counts the references served when reps copies of a
// generated base stream are replayed, one after another, against the
// first nBoxes boxes of src under SquareFinisher semantics. Repetition r
// is shifted to block IDs +r·stride: stride = maxBlock+1 relocates each
// repetition to a fresh address range (back-to-back multiplies of
// different inputs), stride = 0 reuses the blocks verbatim. emit replays
// the base workload (block IDs in [0, maxBlock]) and is called once per
// repetition until the boxes run out; a materialized trace passes
// tr.Emit. This is the worst-case repetition count behind E9 and
// mmtrace -worstcase.
func ServedEmitRepeat(emit func(trace.Sink) error, maxBlock int64, src profile.Source, nBoxes int64, reps int, stride int64) (int64, error) {
	if reps < 1 {
		return 0, fmt.Errorf("paging: reps %d < 1", reps)
	}
	f := NewSquareFinisher(src, nBoxes)
	f.Reserve(maxBlock)
	for r := 0; r < reps && !f.Stopped(); r++ {
		var sink trace.Sink = f
		if shift := int64(r) * stride; shift != 0 {
			sink = trace.OffsetSink{S: f, Shift: shift}
		}
		if err := emit(sink); err != nil {
			return 0, err
		}
	}
	return f.Served(), f.Err()
}

var (
	_ trace.Sink    = (*SquareStream)(nil)
	_ trace.Sink    = (*SquareFinisher)(nil)
	_ trace.Stopper = (*SquareStream)(nil)
	_ trace.Stopper = (*SquareFinisher)(nil)
)

// cacheAccessor is the shared surface of the policy caches (LRU, FIFO).
type cacheAccessor interface {
	Access(block int64) bool
}

// CacheSink adapts a policy cache into a trace.Sink so generators can
// stream straight into an LRU or FIFO replay (leaf markers are ignored —
// DAM-model replays measure I/Os, not progress).
type CacheSink struct {
	Cache cacheAccessor
}

// Access forwards the reference to the cache, discarding the hit flag.
//
//lint:hotpath
func (s CacheSink) Access(block int64) { s.Cache.Access(block) }

// AccessRange forwards blocks [lo, lo+count) in order.
func (s CacheSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		s.Cache.Access(lo + i)
	}
}

// EndLeaf is ignored.
func (s CacheSink) EndLeaf() {}

var _ trace.Sink = CacheSink{}
