package paging

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/trace"
)

// This file implements parallel square-partitioned replay.
//
// The CA model clears the cache at every square boundary, so the state a
// replay carries across a boundary is just (index of the box that starts
// there, index of the reference that starts it). That makes a replay
// embarrassingly parallel *across squares* — provided the boundaries are
// known. Finding them requires simulating residency sequentially, so every
// parallel run here is two passes:
//
//  1. Plan (serial): a stripped-down residency simulation — no BoxStat
//     ledger, no leaf accounting, compact epoch stamps — sweeps the stream
//     once and records a Checkpoint at the first box boundary at or after
//     every cut-stride worth of references.
//  2. Execute (parallel): each shard runs the full kernel over its
//     reference window [cut_k, cut_{k+1}) on the engine pool, with a
//     profile source forked at its starting box (profile.ForkableSource)
//     and the stream slice re-derived via trace.ReplayRange or a windowed
//     re-emission (trace.WindowSink).
//
// Checkpoints are *defined* by the stream content ("the first box boundary
// at global reference >= k·stride"), not by the shard count, and each
// shard's kernel starts from the exact cleared-cache state the serial
// kernel would have at that boundary. Merging the per-shard ledgers in
// shard order therefore reproduces the serial output byte-for-byte at any
// worker count — determinism by construction, pinned by the golden tests
// and FuzzParallelMatchesSerial.
//
// Error parity is by fallback: the planner mirrors the serial kernels'
// validation exactly, and any planner error (invalid box size, maxBoxes
// exceeded) reruns the serial path so partial results and error values are
// identical. Shard execution itself can only fail if a ForkAt fork
// diverges from the sequential source — a contract violation reported as
// an explicit error rather than silently wrong tables.

// Checkpoint marks a square boundary usable as a shard split point: box
// Box starts at global reference index Ref with a cleared cache.
type Checkpoint struct {
	Box int64 // index of the box that starts at Ref (boxes consumed before it)
	Ref int64 // global reference index of the first reference that box serves
}

// DefaultShards picks a shard count for the parallel replay APIs: twice
// the shared engine pool's worker bound (mild oversubscription smooths
// uneven shard costs), or 1 — meaning "stay serial" — when the pool has a
// single worker or no idle token (a saturated pool would run the shards
// serially anyway, so the planning pass would be pure overhead). Shard
// count never affects output, only wall time.
func DefaultShards() int {
	p := engine.Shared()
	if p.Workers() <= 1 || p.Idle() == 0 {
		return 1
	}
	return 2 * p.Workers()
}

// cutStride returns the reference-count spacing between shard cut
// candidates for a stream of totalRefs references.
func cutStride(totalRefs int64, shards int) int64 {
	stride := totalRefs / int64(shards)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// ---------------------------------------------------------------------------
// Plan pass: SquareStream semantics.

// squarePlanner replays SquareStream's residency semantics — identical box
// advancement, identical validation — while recording only shard cut
// points. It is a trace.Sink (and Stopper, so emit-based planning stops
// feeding it after an error), and it keeps no per-box ledger: the planning
// pass is deliberately cheaper than the kernel it plans for.
type squarePlanner struct {
	src      profile.Source
	maxBoxes int64
	resident []int64
	epoch    int64
	size     int64 // current box size
	ios      int64 // I/Os consumed from the current box
	closed   int64 // boxes closed so far (== index of the current box)
	started  bool
	refs     int64 // references consumed so far (global index of the next one)
	err      error
	cut      int64 // reference spacing between cut candidates
	nextCut  int64
	cuts     []Checkpoint
}

func newSquarePlanner(src profile.Source, maxBoxes, cut int64) *squarePlanner {
	return &squarePlanner{src: src, maxBoxes: maxBoxes, epoch: 1, cut: cut, nextCut: cut}
}

// Access mirrors SquareStream.Access, recording a Checkpoint at the first
// box boundary at or after each cut-stride of references.
func (p *squarePlanner) Access(block int64) {
	if p.err != nil {
		return
	}
	if !p.started {
		p.started = true
		p.size = p.src.Next()
		if p.size < 1 {
			p.err = fmt.Errorf("paging: box source produced size %d", p.size)
			return
		}
	}
	p.resident = growResident(p.resident, block)
	if p.resident[block] != p.epoch {
		if p.ios == p.size {
			p.closed++
			if p.maxBoxes > 0 && p.closed >= p.maxBoxes {
				p.err = fmt.Errorf("paging: run exceeded %d boxes", p.maxBoxes)
				return
			}
			if p.refs >= p.nextCut {
				p.cuts = append(p.cuts, Checkpoint{Box: p.closed, Ref: p.refs})
				p.nextCut = p.refs + p.cut
			}
			p.epoch++
			p.size = p.src.Next()
			if p.size < 1 {
				p.err = fmt.Errorf("paging: box source produced size %d", p.size)
				return
			}
			p.ios = 0
		}
		p.resident[block] = p.epoch
		p.ios++
	}
	p.refs++
}

// AccessRange plans blocks [lo, lo+count) in order.
func (p *squarePlanner) AccessRange(lo, count int64) {
	for i := int64(0); i < count && p.err == nil; i++ {
		p.Access(lo + i)
	}
}

// EndLeaf is a no-op: leaf attribution is the executors' job.
func (p *squarePlanner) EndLeaf() {}

// Stopped reports whether the planner errored, so emit-based planning
// stops feeding it.
func (p *squarePlanner) Stopped() bool { return p.err != nil }

// bounds returns the shard boundaries: start of stream, every recorded
// cut, end of stream.
func (p *squarePlanner) bounds() []Checkpoint {
	b := make([]Checkpoint, 0, len(p.cuts)+2)
	b = append(b, Checkpoint{})
	b = append(b, p.cuts...)
	return append(b, Checkpoint{Box: p.closed, Ref: p.refs})
}

// ---------------------------------------------------------------------------
// Plan pass: repeated-stream finisher semantics.

// repeatPlanner replays SquareFinisher semantics over reps shifted
// repetitions of a base stream using one base-address residency array:
// because repetitions are relocated to disjoint address ranges (stride >
// maxBlock), "resident" is a property of (box, repetition), captured in a
// composite stamp bi·reps + rep + 1. The repeat planner therefore touches
// O(maxBlock) memory where the real replay's working set is
// O(reps·stride), which is what keeps the planning pass cheap on
// E9-class runs. The driver feeds the base stream once per repetition,
// setting rep between feeds.
type repeatPlanner struct {
	src      profile.Source
	nBoxes   int64
	reps     int64
	rep      int64 // current repetition, set by the driver
	resident []int64
	bi       int64 // current box index
	size     int64
	ios      int64
	ref      int64 // global reference index; every pre-done reference is served
	done     bool
	err      error
	cut      int64
	nextCut  int64
	cuts     []Checkpoint
}

func newRepeatPlanner(src profile.Source, nBoxes int64, reps int, maxBlock, cut int64) *repeatPlanner {
	p := &repeatPlanner{src: src, nBoxes: nBoxes, reps: int64(reps), cut: cut, nextCut: cut}
	if maxBlock >= 0 {
		p.resident = growResident(p.resident, maxBlock)
	}
	if nBoxes <= 0 {
		p.done = true
		return p
	}
	p.size = src.Next()
	if p.size < 1 {
		p.err = fmt.Errorf("paging: box size %d invalid", p.size)
	}
	return p
}

// Access mirrors SquareFinisher.Access under the composite-stamp encoding.
func (p *repeatPlanner) Access(block int64) {
	if p.done || p.err != nil {
		return
	}
	stamp := p.bi*p.reps + p.rep + 1
	p.resident = growResident(p.resident, block)
	if p.resident[block] == stamp {
		p.ref++
		return
	}
	if p.ios == p.size {
		p.bi++
		if p.bi >= p.nBoxes {
			p.done = true
			return
		}
		p.size = p.src.Next()
		if p.size < 1 {
			p.err = fmt.Errorf("paging: box size %d invalid", p.size)
			return
		}
		if p.ref >= p.nextCut {
			p.cuts = append(p.cuts, Checkpoint{Box: p.bi, Ref: p.ref})
			p.nextCut = p.ref + p.cut
		}
		p.ios = 0
		stamp = p.bi*p.reps + p.rep + 1
	}
	p.resident[block] = stamp
	p.ios++
	p.ref++
}

// AccessRange plans blocks [lo, lo+count) in order.
func (p *repeatPlanner) AccessRange(lo, count int64) {
	for i := int64(0); i < count && !p.done && p.err == nil; i++ {
		p.Access(lo + i)
	}
}

// EndLeaf is a no-op: the finisher semantics ignore leaf markers.
func (p *repeatPlanner) EndLeaf() {}

// Stopped reports whether planning is over (boxes exhausted or errored).
func (p *repeatPlanner) Stopped() bool { return p.done || p.err != nil }

func (p *repeatPlanner) bounds() []Checkpoint {
	b := make([]Checkpoint, 0, len(p.cuts)+2)
	b = append(b, Checkpoint{})
	b = append(b, p.cuts...)
	return append(b, Checkpoint{Box: p.bi, Ref: p.ref})
}

var (
	_ trace.Sink    = (*squarePlanner)(nil)
	_ trace.Stopper = (*squarePlanner)(nil)
	_ trace.Sink    = (*repeatPlanner)(nil)
	_ trace.Stopper = (*repeatPlanner)(nil)
)

// ---------------------------------------------------------------------------
// Execute pass.

// forkAt positions a fork of fsrc at its starting box.
type forkAt func(box int64) profile.Source

// execSquareShards runs one SquareStream per non-empty shard window on the
// engine pool and concatenates the per-box ledgers in shard order. Because
// every checkpoint is a box start, no box spans two shards, and the
// concatenation equals the serial ledger exactly.
func execSquareShards(bounds []Checkpoint, fork forkAt, maxBlock int64, replayRange func(q trace.Sink, lo, hi int64) error) ([]BoxStat, error) {
	shardStats := make([][]BoxStat, len(bounds)-1)
	g := engine.NewGroup()
	err := g.Map(len(bounds)-1, func(k, _ int) error {
		lo, hi := bounds[k].Ref, bounds[k+1].Ref
		if lo >= hi {
			return nil
		}
		// maxBoxes 0: the planning pass already enforced the caller's bound
		// over the whole stream.
		q := NewSquareStream(fork(bounds[k].Box), 0)
		if maxBlock >= 0 {
			q.Reserve(maxBlock)
		}
		if err := replayRange(q, lo, hi); err != nil {
			return err
		}
		st, err := q.Finish()
		if err != nil {
			return fmt.Errorf("paging: parallel shard %d diverged from plan: %v (ForkAt contract violation?)", k, err)
		}
		shardStats[k] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	var stats []BoxStat
	for _, st := range shardStats {
		stats = append(stats, st...)
	}
	return stats, nil
}

// execRepeatShards runs one SquareFinisher per non-empty shard window of a
// reps×refsPerRep repeated stream and sums the served counts. Each shard
// rebases its repetitions to start at shift 0 (repetition r of the shard
// replays at shift (r-r1)·stride), so a shard's residency array spans only
// the repetitions its window touches instead of the full reps·stride
// address range.
func execRepeatShards(bounds []Checkpoint, fork forkAt, nBoxes, refsPerRep, stride int64, replayRep func(s trace.Sink, rep, lo, hi int64) error) (int64, error) {
	served := make([]int64, len(bounds)-1)
	g := engine.NewGroup()
	err := g.Map(len(bounds)-1, func(k, _ int) error {
		loRef, hiRef := bounds[k].Ref, bounds[k+1].Ref
		if loRef >= hiRef {
			return nil
		}
		r1 := loRef / refsPerRep
		r2 := (hiRef - 1) / refsPerRep
		f := NewSquareFinisher(fork(bounds[k].Box), nBoxes-bounds[k].Box)
		for r := r1; r <= r2; r++ {
			lo := loRef - r*refsPerRep
			if lo < 0 {
				lo = 0
			}
			hi := hiRef - r*refsPerRep
			if hi > refsPerRep {
				hi = refsPerRep
			}
			var s trace.Sink = f
			if shift := (r - r1) * stride; shift != 0 {
				s = trace.OffsetSink{S: f, Shift: shift}
			}
			if err := replayRep(s, r, lo, hi); err != nil {
				return err
			}
		}
		if err := f.Err(); err != nil {
			return fmt.Errorf("paging: parallel repeat shard %d diverged from plan: %v (ForkAt contract violation?)", k, err)
		}
		if f.Served() != hiRef-loRef {
			return fmt.Errorf("paging: parallel repeat shard %d served %d of %d planned references (ForkAt contract violation?)", k, f.Served(), hiRef-loRef)
		}
		served[k] = f.Served()
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range served {
		total += s
	}
	return total, nil
}

// ---------------------------------------------------------------------------
// Public entry points.

// SquareEmitParallel replays a generated stream under square semantics,
// split into per-square-range shards executed on the shared engine pool.
// emit must produce the identical reference sequence on every call — the
// standard generator contract; a materialized trace passes tr.Emit. It is
// invoked once for the planning pass and once per shard with a
// trace.WindowSink selecting the shard's slice. totalRefs is the expected
// stream length; it only spaces the shard cuts, so an estimate merely
// unbalances shards. maxBlock pre-sizes residency arrays (pass -1 if
// unknown). Output and error are byte-identical to emitting into a single
// SquareStream(src, maxBoxes) at any shard count; shards <= 0 picks
// DefaultShards(). Parallel execution needs a profile.ForkableSource: a
// non-forkable src is consumed serially, exactly as a SquareStream would
// consume it, while a forkable one is never advanced — a single shard or a
// planning-pass error replays serially from src.ForkAt(0).
func SquareEmitParallel(emit func(trace.Sink) error, totalRefs, maxBlock int64, src profile.Source, maxBoxes int64, shards int) ([]BoxStat, error) {
	serial := func(s profile.Source) ([]BoxStat, error) {
		q := NewSquareStream(s, maxBoxes)
		if maxBlock >= 0 {
			q.Reserve(maxBlock)
		}
		if err := emit(q); err != nil {
			return nil, err
		}
		return q.Finish()
	}
	fsrc, ok := src.(profile.ForkableSource)
	if !ok {
		return serial(src)
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	if shards <= 1 || totalRefs < 2 {
		return serial(fsrc.ForkAt(0))
	}
	p := newSquarePlanner(fsrc.ForkAt(0), maxBoxes, cutStride(totalRefs, shards))
	if maxBlock >= 0 {
		p.resident = growResident(p.resident, maxBlock)
	}
	if err := emit(p); err != nil {
		return nil, err
	}
	if p.err != nil {
		return serial(fsrc.ForkAt(0))
	}
	return execSquareShards(p.bounds(), fsrc.ForkAt, maxBlock, func(q trace.Sink, lo, hi int64) error {
		return emit(trace.NewWindowSink(q, lo, hi))
	})
}

// ServedEmitRepeatParallel counts the references served when reps shifted
// copies of a generated base stream (repetition r at block shift r·stride
// — the RepeatTraceFresh semantics) are replayed against the first nBoxes
// boxes of src under SquareFinisher semantics. emit replays the base
// workload (refsPerRep references, block IDs in [0, maxBlock]) and must
// produce the identical sequence on every call; a materialized trace
// passes tr.Emit. The result and error match the serial replay exactly at
// any shard count; shards <= 0 picks DefaultShards().
//
// The planning pass re-emits the base stream once per repetition into the
// compact planner; each shard re-emits only the repetitions its window
// overlaps, through a trace.WindowSink that clips to the window (the
// emission ahead of a shard's window is skip-counted; the tail after it is
// cut off via the stopper). The sharded path needs a forkable source and
// stride > maxBlock (each repetition in a fresh address range — the
// condition under which the planner's compact per-repetition stamps are
// exact); otherwise the replay runs serially. This is the E9-class
// primitive at dims whose base trace exceeds the materialisation ceiling.
func ServedEmitRepeatParallel(emit func(trace.Sink) error, refsPerRep, maxBlock int64, src profile.Source, nBoxes int64, reps int, stride int64, shards int) (int64, error) {
	serial := func(s profile.Source) (int64, error) {
		f := NewSquareFinisher(s, nBoxes)
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
	fsrc, ok := src.(profile.ForkableSource)
	if !ok {
		return serial(src)
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	if shards <= 1 || reps < 1 || refsPerRep < 1 || stride <= maxBlock {
		return serial(fsrc.ForkAt(0))
	}
	p := newRepeatPlanner(fsrc.ForkAt(0), nBoxes, reps, maxBlock, cutStride(int64(reps)*refsPerRep, shards))
	for r := 0; r < reps && !p.done && p.err == nil; r++ {
		p.rep = int64(r)
		if err := emit(p); err != nil {
			return 0, err
		}
	}
	if p.err != nil {
		return serial(fsrc.ForkAt(0))
	}
	return execRepeatShards(p.bounds(), fsrc.ForkAt, nBoxes, refsPerRep, stride, func(s trace.Sink, rep, lo, hi int64) error {
		return emit(trace.NewWindowSink(s, lo, hi))
	})
}
