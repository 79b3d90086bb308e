package main

import (
	"fmt"
	"maps"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// replayBench replays one seeded i.i.d. box draw under every replay name
// with adaptivity.MeasureTracePolicy, the path E12 takes. The generator,
// the trace.Sink adapters (PolicyStream, SquareStream) and the kernels
// carry the load; the executor, the engine fan-out and the service stay
// out of it.
type replayBench struct {
	e             env
	n             int64
	boxes         []int64
	drawSeconds   float64
	passes        []map[string]adaptivity.RunResult
	replaySeconds map[string]float64 // per-replay time of the last pass
	passSeconds   float64
}

func newReplayBench(e env) *replayBench {
	return &replayBench{e: e, n: profile.Pow(4, e.sz.replayK)}
}

// setup draws the profile: box sizes i.i.d. from the size distribution of
// M_{8,4}(n/16), Theorem 1's setting, which is M_{8,4}(n)'s distribution
// given a box no larger than n/16. The two larger sizes are so rare (a
// handful in a draw) and each finishes so large a share of the algorithm
// that, left in, they make the number of boxes a replay needs, and with it
// the replay's time, range over a factor of two between seeds. A replay
// that needs more boxes than were drawn cycles through them.
func (b *replayBench) setup(tr *tracer) error {
	sp := tr.begin(0, "smoothing.IIDSource")
	dist, err := xrand.WorstCaseBoxDist(8, 4, b.n/16)
	if err != nil {
		sp.end()
		return err
	}
	src := smoothing.IIDSource(dist, xrand.New(xrand.Split(b.e.seed, "perfbench/replay")))
	boxes := make([]int64, b.e.sz.replayBoxes)
	for i := range boxes {
		boxes[i] = src.Next()
	}
	b.boxes = boxes
	b.drawSeconds = sp.end()
	return nil
}

// pass replays the draw under every replay name, each from the first box
// and from a settled heap: the opt replay leaves over a gigabyte of
// garbage, which would otherwise be collected during the next replay. The
// pass's time is the sum of the replays' times.
func (b *replayBench) pass(tr *tracer, parent int) (passResult, error) {
	var r passResult
	res := map[string]adaptivity.RunResult{}
	b.replaySeconds = map[string]float64{}
	b.passSeconds = 0
	for _, name := range paging.ReplayNames() {
		src, err := profile.NewBoxesSource(b.boxes)
		if err != nil {
			return r, err
		}
		settle()
		sp := tr.begin(parent, "adaptivity.MeasureTracePolicy:"+name)
		rr, err := adaptivity.MeasureTracePolicy(regular.MMScanSpec, b.n, name, src, 0)
		d := sp.end()
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		res[name] = rr
		b.replaySeconds[name] = d
		r.ops = append(r.ops, d)
		r.names = append(r.names, name)
		b.passSeconds += d
	}
	r.wall, r.opPhase = b.passSeconds, b.passSeconds
	b.passes = append(b.passes, res)
	return r, nil
}

// check requires every replay of every pass to complete the algorithm,
// every pass to agree, and the generator to emit exactly IOCost(n)
// references.
func (b *replayBench) check() error {
	spec := regular.MMScanSpec
	leaves := int64(spec.LeafCount(b.n))
	for i, res := range b.passes {
		if err := checkReplays(res, leaves); err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		if i > 0 && !maps.Equal(res, b.passes[0]) {
			return fmt.Errorf("pass %d replays differ from pass 1", i+1)
		}
	}
	c := &trace.CountingSink{}
	if err := regular.EmitSynthetic(spec, b.n, c); err != nil {
		return err
	}
	if want := int64(spec.IOCost(b.n)); c.Refs != want || c.Leaves != leaves {
		return fmt.Errorf("generator emitted %d references and %d leaves, want %d and %d", c.Refs, c.Leaves, want, leaves)
	}
	return nil
}

// checkReplays requires every replay name to have run and completed the
// whole algorithm: Progress equals its leaf count. The opt replay
// (paging.OPTRunBoxes) does not attribute leaves to boxes, so its Progress
// is always 0 and only its presence is checked.
func checkReplays(res map[string]adaptivity.RunResult, leaves int64) error {
	for _, name := range paging.ReplayNames() {
		r, ok := res[name]
		if !ok {
			return fmt.Errorf("%s did not run", name)
		}
		if name != paging.OPTReplayName && r.Progress != leaves {
			return fmt.Errorf("%s completed %d leaves, want %d", name, r.Progress, leaves)
		}
	}
	return nil
}

// layers reports each replay's time, the draw, and the square replay's
// shard speedup at worker bound 2, on the draw and on the worst-case
// profile.
func (b *replayBench) layers(tr *tracer) (map[string]float64, error) {
	v := map[string]float64{"profile.iid_draw_s": b.drawSeconds}
	for name, s := range b.replaySeconds {
		v["adaptivity.replay_s."+name] = s
	}
	v["adaptivity.refs_per_s"] = float64(len(b.replaySeconds)) * regular.MMScanSpec.IOCost(b.n) / b.passSeconds
	iid, err := profile.NewBoxesSource(b.boxes)
	if err != nil {
		return nil, err
	}
	if v["paging.square_shard_speedup_w2"], err = shardSpeedupW2(tr, "iid", b.n, iid); err != nil {
		return nil, err
	}
	wc, err := profile.NewWorstCaseSource(8, 4)
	if err != nil {
		return nil, err
	}
	if v["paging.square_wc_shard_speedup_w2"], err = shardSpeedupW2(tr, "worst-case", b.n, wc); err != nil {
		return nil, err
	}
	return v, nil
}

func (b *replayBench) close() error { return nil }

// shardSpeedupW2 replays the square semantics from src at engine worker
// bound 2, on one shard and on DefaultShards, and returns the one-shard
// time over the sharded time. Both must produce the same per-box ledger.
func shardSpeedupW2(tr *tracer, label string, n int64, src profile.ForkableSource) (float64, error) {
	engine.SetSharedWorkers(2)
	defer engine.SetSharedWorkers(1)
	spec := regular.MMScanSpec
	emit := func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }
	run := func(shards int) (uint64, float64, error) {
		settle()
		sp := tr.begin(0, fmt.Sprintf("paging.SquareEmitParallel:%s/shards=%d", label, shards))
		stats, err := paging.SquareEmitParallel(emit, int64(spec.IOCost(n)), n-1, src, 0, shards)
		d := sp.end()
		return ledgerDigest(stats), d, err
	}
	serial, t1, err := run(1)
	if err != nil {
		return 0, err
	}
	shards := paging.DefaultShards()
	sharded, tn, err := run(shards)
	if err != nil {
		return 0, err
	}
	if serial != sharded {
		return 0, fmt.Errorf("%s square replay on %d shards differs from one shard", label, shards)
	}
	return t1 / tn, nil
}

// ledgerDigest folds every field of a per-box ledger into an FNV-1a-style
// hash, so that two replays' ledgers compare without both being held in
// memory.
func ledgerDigest(stats []paging.BoxStat) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range stats {
		for _, x := range [...]int64{s.Size, s.IOs, s.Leaves, s.Refs} {
			h = (h ^ uint64(x)) * 1099511628211
		}
	}
	return h
}
