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
//  1. Plan (serial): a SquareStream replay whose fold records a
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
// Error parity is by fallback: the plan pass is the serial kernel itself,
// and any stream error in it (invalid box size, maxBoxes exceeded) reruns
// the serial path so partial results and error values are identical. Shard execution itself can only fail if a ForkAt fork
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
// Plan pass.

// planSquareShards is the plan pass: a SquareStream replay whose fold
// records a Checkpoint at the first box boundary at or after every cut
// references, and returns the shard bounds — start of stream, each cut,
// end of stream. ok is false when the stream errored (an invalid box,
// maxBoxes exceeded); err is emit's own error.
func planSquareShards(emit func(trace.Sink) error, src profile.Source, maxBlock, maxBoxes, cut int64) (bounds []Checkpoint, ok bool, err error) {
	bounds = []Checkpoint{{}}
	var boxes, refs int64
	nextCut := cut
	q := NewSquareStream(src, maxBoxes, func(b BoxStat) {
		boxes++
		refs += b.Refs
		if refs >= nextCut {
			bounds = append(bounds, Checkpoint{Box: boxes, Ref: refs})
			nextCut = refs + cut
		}
	})
	q.Reserve(maxBlock)
	if err := emit(q); err != nil {
		return nil, false, err
	}
	if q.Finish() != nil {
		return nil, false, nil
	}
	// Finish folded the last box, whose end may already stand as a cut.
	if last := bounds[len(bounds)-1]; last.Ref < refs {
		bounds = append(bounds, Checkpoint{Box: boxes, Ref: refs})
	}
	return bounds, true, nil
}

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
		q := NewSquareStream(src.ForkAt(bounds[k].Box), 0, collect(&shardStats[k]))
		if maxBlock >= 0 {
			q.Reserve(maxBlock)
		}
		if err := emit(trace.NewWindowSink(q, lo, hi)); err != nil {
			return err
		}
		if err := q.Finish(); err != nil {
			return fmt.Errorf("paging: parallel shard %d diverged from plan: %v (ForkAt contract violation?)", k, err)
		}
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
	var stats []BoxStat
	serial := func(src profile.Source) ([]BoxStat, error) {
		err := replayInto(NewSquareStream(src, maxBoxes, collect(&stats)), emit, maxBlock)
		return stats, err
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
	bounds, ok, err := planSquareShards(emit, fsrc.ForkAt(0), maxBlock, maxBoxes, cutStride(totalRefs, shards))
	if err != nil {
		return nil, err
	}
	if !ok {
		return serial(fsrc.ForkAt(0))
	}
	return execSquareShards(bounds, fsrc, maxBlock, emit)
}
