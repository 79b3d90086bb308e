// Package adaptivity measures cache-adaptivity: it runs (a,b,c)-regular
// executions against memory profiles and evaluates the paper's efficiency
// criterion.
//
// An execution consuming squares (□_1, ..., □_j) on a problem of size n is
// efficiently cache-adaptive when (Equation 2)
//
//	Σ_{i=1..j} min(n, |□_i|)^{log_b a}  <=  O(n^{log_b a}),
//
// so the package's central quantity is the gap
//
//	gap = Σ min(n, |□_i|)^{log_b a} / n^{log_b a},
//
// which is Θ(1) for adaptive executions and Θ(log_b n) on worst-case
// profiles (Theorem 2). The package also estimates the stopping times f(n)
// and f'(n) of Section 4 and checks Lemma 3 and Equations 6–8 empirically.
//
// Two execution backends are provided: the symbolic executor (faithful to
// the paper's simplified caching model, which the paper states for c = 1)
// and the trace/paging backend (ground truth for any c, including the
// adaptive c < 1 algorithms such as MM-InPlace whose boxes genuinely carry
// leftover budget past scans).
package adaptivity

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// RunResult summarises one execution against a box stream.
type RunResult struct {
	Spec             regular.Spec
	N                int64   // problem size in blocks
	Boxes            int64   // boxes consumed until completion
	BoundedPotential float64 // Σ min(n, |□|)^{log_b a}
	Progress         int64   // base cases completed (== total leaves on success)
	BoxSizeSum       int64   // Σ |□| over consumed boxes — the I/O-time the profile granted
}

// Gap returns BoundedPotential / n^{log_b a} — 1 means every box made full
// use of its potential; log_b n + 1 is the worst case.
func (r RunResult) Gap() float64 {
	return r.BoundedPotential / r.Spec.Potential(r.N)
}

// addBox folds one consumed box into the run, pricing it from pot. Both
// backends add their boxes here in box order; the float accumulation order
// is part of the golden tables' byte identity.
func (r *RunResult) addBox(pot *regular.Potentials, size, progress int64) {
	r.Boxes++
	r.BoundedPotential += pot.Of(size)
	r.Progress += progress
	r.BoxSizeSum += size
}

// OpGap returns the operation-based efficiency reading (footnote 4 of the
// paper): total box I/O-time granted divided by the algorithm's serial I/O
// cost T(n). For a < b, c = 1 algorithms — which run in linear time
// independent of cache size — this is the quantity that is Θ(1) and makes
// them "trivially cache-adaptive"; the base-case potential reading does
// not apply to them because scans, not base cases, carry their work.
func (r RunResult) OpGap() float64 {
	return float64(r.BoxSizeSum) / r.Spec.IOCost(r.N)
}

// MeasureSymbolic runs the symbolic executor for spec on a problem of n
// blocks against boxes from src, up to maxBoxes (0 = unbounded). The
// symbolic backend implements the paper's simplified caching model, which
// is exact for c = 1; for c < 1 it is pessimistic (boxes are not credited
// with budget left over after short scans) — use MeasureTracePolicy for
// faithful c < 1 numbers.
func MeasureSymbolic(spec regular.Spec, n int64, src profile.Source, maxBoxes int64) (RunResult, error) {
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return RunResult{}, err
	}
	return MeasureSymbolicExec(e, src, maxBoxes)
}

// MeasureSymbolicExec is MeasureSymbolic against a caller-owned executor,
// which is Reset before the run. Engine workers use it to reuse one
// executor's frame stack across every trial of the same (spec, n) instead
// of allocating a fresh executor per cell. Any mode flags set on e
// (strict scans, spread scans, ...) carry over.
func MeasureSymbolicExec(e *regular.Exec, src profile.Source, maxBoxes int64) (RunResult, error) {
	e.Reset()
	spec, n := e.Spec(), e.N()
	res := RunResult{Spec: spec, N: n}
	pot := spec.Potentials(n)
	err := e.Run(src.Next, maxBoxes, func(box, prog int64) { res.addBox(&pot, box, prog) })
	return res, err
}

// MeasureTracePolicy streams the canonical synthetic trace for spec on n
// blocks through the named replay (paging.ReplayNames) against boxes from
// src. This is the ground-truth backend; it is exact for every c.
//
//   - "square" (or "") is the cleared-cache square semantics. The trace is
//     never materialized, so memory is O(n) (the residency set) and
//     problem sizes far beyond SyntheticTrace's materialization ceiling
//     stream fine.
//   - A registered kernel (paging.PolicyNames) replays live, with the box
//     profile driving its capacity.
//   - "opt" is the clairvoyant box replay. It needs the future, so it
//     records the stream (RecordTraceOPT), under the same ceiling as
//     SyntheticTrace, then replays the recording (MeasureOPT).
func MeasureTracePolicy(spec regular.Spec, n int64, policy string, src profile.Source, maxBoxes int64) (RunResult, error) {
	switch policy {
	case "":
		policy = paging.SquareReplayName
	case paging.OPTReplayName:
		rec, err := RecordTraceOPT(spec, n)
		if err != nil {
			return RunResult{}, err
		}
		return MeasureOPT(spec, n, rec, src, maxBoxes)
	}
	return measureBoxes(spec, n, func(fold func(paging.BoxStat)) error {
		return paging.Replay(policy, syntheticEmit(spec, n), int64(spec.IOCost(n)), n-1, src, maxBoxes, fold)
	})
}

// RecordTraceOPT records the canonical synthetic trace for spec on n
// blocks for the opt replay, refusing traces longer than SyntheticTrace's
// ceiling before recording anything. The recording is read-only, so every
// MeasureOPT replay of it may share it, concurrently too.
func RecordTraceOPT(spec regular.Spec, n int64) (*paging.OPTRecording, error) {
	return paging.RecordOPT(syntheticEmit(spec, n), int64(spec.IOCost(n)), n-1)
}

// MeasureOPT is MeasureTracePolicy's "opt" replay over rec, a recording
// of spec's trace on n blocks (RecordTraceOPT), against boxes from src. A
// caller measuring one (spec, n) under many profiles records once and
// calls MeasureOPT per profile.
func MeasureOPT(spec regular.Spec, n int64, rec *paging.OPTRecording, src profile.Source, maxBoxes int64) (RunResult, error) {
	return measureBoxes(spec, n, func(fold func(paging.BoxStat)) error {
		return rec.Replay(src, maxBoxes, fold)
	})
}

// syntheticEmit emits the canonical synthetic trace for spec on n blocks.
func syntheticEmit(spec regular.Spec, n int64) func(trace.Sink) error {
	return func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }
}

// measureBoxes runs a box replay of spec on n blocks, pricing each box
// its fold receives into the run.
func measureBoxes(spec regular.Spec, n int64, replay func(fold func(paging.BoxStat)) error) (RunResult, error) {
	res := RunResult{Spec: spec, N: n}
	pot := spec.Potentials(n)
	if err := replay(func(b paging.BoxStat) { res.addBox(&pot, b.Size, b.Leaves) }); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// GapOnProfile runs spec on n blocks against prof (cycled if the algorithm
// needs more boxes than the profile holds) with the symbolic backend and
// returns the run.
func GapOnProfile(spec regular.Spec, n int64, prof *profile.SquareProfile) (RunResult, error) {
	src, err := profile.NewSliceSource(prof)
	if err != nil {
		return RunResult{}, err
	}
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return RunResult{}, err
	}
	return GapOnSourceExec(e, src)
}

// GapOnSourceExec is GapOnProfile against any box source (a smoothed
// profile read in place, say) with a caller-owned executor, which is Reset
// before the run — the allocation-light form for engine workers. The run
// is bounded by the largest sound box count: every box completes at least
// one access of the T(n) total, so T(n)+1 boxes always suffice.
func GapOnSourceExec(e *regular.Exec, src profile.Source) (RunResult, error) {
	maxBoxes := int64(e.Spec().IOCost(e.N())) + 1
	return MeasureSymbolicExec(e, src, maxBoxes)
}

// GapSample runs one Theorem-1 trial — spec on n blocks against i.i.d.
// boxes from dist under the given seed — and returns the trial's gap. It
// is the single-cell primitive the experiment engine fans out across
// (size, trial) cells with xrand.Split-derived seeds.
func GapSample(spec regular.Spec, n int64, dist xrand.Dist, seed uint64) (float64, error) {
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return 0, err
	}
	return GapSampleExec(e, dist, seed)
}

// GapSampleExec is GapSample against a caller-owned executor.
func GapSampleExec(e *regular.Exec, dist xrand.Dist, seed uint64) (float64, error) {
	rng := xrand.New(seed)
	src := profile.FuncSource(func() int64 { return dist.Sample(rng) })
	res, err := MeasureSymbolicExec(e, src, 0)
	if err != nil {
		return 0, err
	}
	return res.Gap(), nil
}

// GapOnDist runs `trials` independent executions of spec on n blocks with
// i.i.d. box sizes from dist (Theorem 1's setting) and returns the per-trial
// gaps. Each trial derives its own generator from seed, so the result is
// deterministic in (seed, trials) even though the trials fan out on g: they
// count as g's cells and stop when g's context is cancelled.
func GapOnDist(g *engine.Group, spec regular.Spec, n int64, dist xrand.Dist, seed uint64, trials int) ([]float64, error) {
	if trials < 1 {
		return nil, fmt.Errorf("adaptivity: trials = %d < 1", trials)
	}
	// Derive the per-trial generators serially (the derivation order is
	// part of the contract), then run the trials on g.
	root := xrand.New(seed)
	rngs := make([]*xrand.Source, trials)
	for t := range rngs {
		rngs[t] = root.Split()
	}
	gaps := make([]float64, trials)
	err := g.Map(trials, func(t, _ int) error {
		rng := rngs[t]
		src := profile.FuncSource(func() int64 { return dist.Sample(rng) })
		res, err := MeasureSymbolic(spec, n, src, 0)
		if err != nil {
			return err
		}
		gaps[t] = res.Gap()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gaps, nil
}

// StoppingTimes holds Monte-Carlo estimates of the paper's f(n) (expected
// boxes to complete a problem of size n) and f'(n) (same, excluding the
// final scan) under a box-size distribution.
type StoppingTimes struct {
	N        int64
	F        float64 // mean boxes to complete
	FPrime   float64 // mean boxes to complete all subproblems (no root scan)
	FSE      float64 // standard error of F
	FPrimeSE float64
	Trials   int
}

// EstimateStoppingTimes Monte-Carlo estimates f(n) and f'(n) for spec under
// dist. The f and f' estimates use common random numbers (the same box
// stream per trial), which sharpens the f/f' ratio estimate used by the
// Equation 8 check. The trials fan out on g: they count as g's cells and
// stop when g's context is cancelled.
func EstimateStoppingTimes(g *engine.Group, spec regular.Spec, n int64, dist xrand.Dist, seed uint64, trials int) (StoppingTimes, error) {
	if trials < 1 {
		return StoppingTimes{}, fmt.Errorf("adaptivity: trials = %d < 1", trials)
	}
	root := xrand.New(seed)
	trialSeeds := make([]uint64, trials)
	for t := range trialSeeds {
		trialSeeds[t] = root.Uint64()
	}
	fs := make([]float64, trials)
	fps := make([]float64, trials)
	samplers := make([]*stoppingSampler, g.Workers())
	err := g.Map(trials, func(t, w int) error {
		if samplers[w] == nil {
			s, err := newStoppingSampler(spec, n, dist)
			if err != nil {
				return err
			}
			samplers[w] = s
		}
		f, fp, err := samplers[w].sample(trialSeeds[t])
		if err != nil {
			return err
		}
		fs[t], fps[t] = f, fp
		return nil
	})
	if err != nil {
		return StoppingTimes{}, err
	}
	var sumF, sumF2, sumFp, sumFp2 float64
	for t := 0; t < trials; t++ {
		sumF += fs[t]
		sumF2 += fs[t] * fs[t]
		sumFp += fps[t]
		sumFp2 += fps[t] * fps[t]
	}
	tn := float64(trials)
	st := StoppingTimes{N: n, Trials: trials, F: sumF / tn, FPrime: sumFp / tn}
	if trials > 1 {
		st.FSE = se(sumF, sumF2, tn)
		st.FPrimeSE = se(sumFp, sumFp2, tn)
	}
	return st, nil
}

// stoppingSampler runs common-random-numbers trials of the f/f'
// estimators for one (spec, n, dist), reusing one executor and one draw
// buffer across trials. EstimateStoppingTimes keeps one per worker.
type stoppingSampler struct {
	e     *regular.Exec
	dist  xrand.Dist
	rng   xrand.Source
	draws []int64 // the f run's boxes, replayed for f'
}

func newStoppingSampler(spec regular.Spec, n int64, dist xrand.Dist) (*stoppingSampler, error) {
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return nil, err
	}
	return &stoppingSampler{e: e, dist: dist}, nil
}

// sample runs one trial: the box stream seeded by trialSeed drives one full
// run (f) and one run that skips the root scan (f'). The stream is drawn
// once: the f run records its boxes and the f' run replays them.
func (s *stoppingSampler) sample(trialSeed uint64) (f, fPrime float64, err error) {
	s.rng = *xrand.New(trialSeed)
	s.draws = s.draws[:0]
	if f, err = s.run(false); err != nil {
		return 0, 0, err
	}
	if fPrime, err = s.run(true); err != nil {
		return 0, 0, err
	}
	return f, fPrime, nil
}

// run executes the algorithm, with or without the root scan, over the
// trial's stream and returns the boxes it used: the recorded boxes first,
// then fresh draws from the generator, recorded in turn. The generator has
// drawn exactly the recorded boxes, so a run that outlasts the record
// continues the stream where a fresh generator under the trial's seed
// would be.
func (s *stoppingSampler) run(skipRootScan bool) (float64, error) {
	e := s.e
	e.Reset()
	if err := e.SetSkipRootScan(skipRootScan); err != nil {
		return 0, err
	}
	for i := 0; !e.Done(); i++ {
		if i == len(s.draws) {
			s.draws = append(s.draws, s.dist.Sample(&s.rng))
		}
		e.Step(s.draws[i])
	}
	return float64(e.BoxesUsed()), nil
}

func se(sum, sumSq, n float64) float64 {
	mean := sum / n
	variance := (sumSq - n*mean*mean) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance / n)
}
