package paging

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/trace"
)

// This file implements parallel square-partitioned replay
// (SquareEmitParallel). No experiment or command calls it: on a 2-CPU host
// the sharded run is slower than the serial SquareStream replay it
// reproduces, so every production square replay is serial. It stays for
// the benchmark's shard-speedup probe, which measures exactly that.
//
// The CA model clears the cache at every square boundary, so the state a
// replay carries across a boundary is just (index of the box that starts
// there, index of the reference that starts it). That makes a replay
// embarrassingly parallel *across squares* — provided the boundaries are
// known. Finding them requires simulating residency sequentially, so every
// parallel run here is two passes:
//
//  1. Plan (serial): a stripped-down residency simulation — no BoxStat
//     ledger, no leaf accounting — sweeps the stream once and records a
//     Checkpoint at the first box boundary at or after every cut-stride
//     worth of references.
//  2. Execute (parallel): each shard runs the full kernel over its
//     reference window [cut_k, cut_{k+1}) on the engine pool, with a
//     profile source forked at its starting box (profile.ForkableSource)
//     and the stream slice re-derived by a windowed re-emission
//     (trace.WindowSink).
//
// Checkpoints are *defined* by the stream content ("the first box boundary
// at global reference >= k·stride"), not by the shard count, and each
// shard's kernel starts from the exact cleared-cache state the serial
// kernel would have at that boundary. Merging the per-shard ledgers in
// shard order therefore reproduces the serial output byte-for-byte at any
// worker count, pinned by FuzzParallelMatchesSerial.
//
// Error parity is by fallback: the planner mirrors the serial kernel's
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

// DefaultShards picks a shard count for SquareEmitParallel: twice
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

var (
	_ trace.Sink    = (*squarePlanner)(nil)
	_ trace.Stopper = (*squarePlanner)(nil)
)

// ---------------------------------------------------------------------------
// Execute pass.

// execSquareShards runs one SquareStream per non-empty shard window on the
// engine pool, each fed by re-emitting the stream through a
// trace.WindowSink, and concatenates the per-box ledgers in shard order.
// Because every checkpoint is a box start, no box spans two shards, and
// the concatenation equals the serial ledger exactly.
func execSquareShards(bounds []Checkpoint, src profile.ForkableSource, maxBlock int64, emit func(trace.Sink) error) ([]BoxStat, error) {
	shardStats := make([][]BoxStat, len(bounds)-1)
	g := engine.NewGroup()
	err := g.Map(len(bounds)-1, func(k, _ int) error {
		lo, hi := bounds[k].Ref, bounds[k+1].Ref
		if lo >= hi {
			return nil
		}
		// maxBoxes 0: the planning pass already enforced the caller's bound
		// over the whole stream.
		q := NewSquareStream(src.ForkAt(bounds[k].Box), 0)
		if maxBlock >= 0 {
			q.Reserve(maxBlock)
		}
		if err := emit(trace.NewWindowSink(q, lo, hi)); err != nil {
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
	fsrc, ok := src.(profile.ForkableSource)
	if !ok {
		return replayInto(NewSquareStream(src, maxBoxes), emit, maxBlock)
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	if shards <= 1 || totalRefs < 2 {
		return replayInto(NewSquareStream(fsrc.ForkAt(0), maxBoxes), emit, maxBlock)
	}
	p := newSquarePlanner(fsrc.ForkAt(0), maxBoxes, cutStride(totalRefs, shards))
	if maxBlock >= 0 {
		p.resident = growResident(p.resident, maxBlock)
	}
	if err := emit(p); err != nil {
		return nil, err
	}
	if p.err != nil {
		return replayInto(NewSquareStream(fsrc.ForkAt(0), maxBoxes), emit, maxBlock)
	}
	return execSquareShards(p.bounds(), fsrc, maxBlock, emit)
}
