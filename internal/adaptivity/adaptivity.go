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
// Every gap is measured by one of two primitives, one per execution
// backend:
//
//   - MeasureExec runs the symbolic executor, which is faithful to the
//     paper's simplified caching model (stated for c = 1).
//   - MeasureBoxes prices a box replay of a reference stream (the
//     trace/paging backend). It is the ground truth for any c, including
//     the adaptive c < 1 algorithms such as MM-InPlace, whose boxes
//     genuinely carry leftover budget past scans. MeasureTracePolicy is
//     MeasureBoxes over the canonical synthetic trace.
//
// The Monte-Carlo estimators over Split-derived generators (GapOnDist and
// CheckLemma3's child runs) share a third primitive, one trial fan-out
// that reuses an executor per engine worker.
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

// MeasureExec runs the caller-owned symbolic executor e against boxes from
// src and returns the run. e is Reset first, so engine workers reuse one
// executor's frame stack across every trial of the same (spec, n); any
// mode flags set on e (strict scans, spread scans, ...) carry over. The
// run is bounded by the largest sound box count: every box completes at
// least one access of the T(n) total, so T(n)+1 boxes always suffice.
//
// The symbolic backend implements the paper's simplified caching model,
// which is exact for c = 1; for c < 1 it is pessimistic (boxes are not
// credited with budget left over after short scans) — use
// MeasureTracePolicy for faithful c < 1 numbers.
func MeasureExec(e *regular.Exec, src profile.Source) (RunResult, error) {
	e.Reset()
	spec, n := e.Spec(), e.N()
	res := RunResult{Spec: spec, N: n}
	pot := spec.Potentials(n)
	err := e.Run(src.Next, int64(spec.IOCost(n))+1, func(box, prog int64) { res.addBox(&pot, box, prog) })
	return res, err
}

// MeasureBoxes prices a box replay of spec on n blocks: replay passes each
// box it closes to fold, in box order, and the run sums them. A caller
// replaying one stream under many profiles (E12's shared opt recordings)
// or a stream other than the canonical one (A1's shuffled traces) passes
// its own replay; MeasureTracePolicy covers the canonical stream.
func MeasureBoxes(spec regular.Spec, n int64, replay func(fold func(paging.BoxStat)) error) (RunResult, error) {
	res := RunResult{Spec: spec, N: n}
	pot := spec.Potentials(n)
	if err := replay(func(b paging.BoxStat) { res.addBox(&pot, b.Size, b.Leaves) }); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// MeasureTracePolicy streams the canonical synthetic trace for spec on n
// blocks through the named replay (paging.Replay, "" meaning "square")
// against boxes from src, up to maxBoxes (0 = unbounded), and prices it
// with MeasureBoxes. This is the ground-truth backend; it is exact for
// every c. The square and kernel replays never materialize the trace, so
// memory is O(n) and problem sizes far beyond SyntheticTrace's ceiling
// stream fine; "opt" needs the future, so it records the stream under the
// same ceiling first.
func MeasureTracePolicy(spec regular.Spec, n int64, policy string, src profile.Source, maxBoxes int64) (RunResult, error) {
	if policy == "" {
		policy = paging.SquareReplayName
	}
	emit := func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }
	return MeasureBoxes(spec, n, func(fold func(paging.BoxStat)) error {
		return paging.Replay(policy, emit, int64(spec.IOCost(n)), n-1, src, maxBoxes, fold)
	})
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
	return MeasureExec(e, src)
}

// GapSampleExec runs one Theorem-1 trial on the caller-owned executor e —
// its (spec, n) against i.i.d. boxes from dist under the given seed — and
// returns the trial's gap. It is the single-cell primitive the experiment
// engine fans out across (size, trial) cells with xrand.Split-derived
// seeds.
func GapSampleExec(e *regular.Exec, dist xrand.Dist, seed uint64) (float64, error) {
	return iidGap(e, dist, xrand.New(seed))
}

// iidGap runs e against i.i.d. boxes from dist drawn from rng and returns
// the run's gap.
func iidGap(e *regular.Exec, dist xrand.Dist, rng *xrand.Source) (float64, error) {
	res, err := MeasureExec(e, profile.FuncSource(func() int64 { return dist.Sample(rng) }))
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
	gaps := make([]float64, trials)
	err := fanTrials(g, spec, n, seed, trials, func(t int, e *regular.Exec, rng *xrand.Source) error {
		var err error
		gaps[t], err = iidGap(e, dist, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	return gaps, nil
}

// fanTrials runs trials on g. Trial t draws from the t-th generator split
// from xrand.New(seed); the generators are derived serially, before any
// trial runs, because the derivation order is part of the determinism
// contract. Each engine worker builds one executor for spec on n blocks at
// its first trial and hands it to every trial it runs; run resets it.
func fanTrials(g *engine.Group, spec regular.Spec, n int64, seed uint64, trials int, run func(t int, e *regular.Exec, rng *xrand.Source) error) error {
	root := xrand.New(seed)
	rngs := make([]*xrand.Source, trials)
	for t := range rngs {
		rngs[t] = root.Split()
	}
	execs := make([]*regular.Exec, g.Workers())
	return g.Map(trials, func(t, w int) error {
		if execs[w] == nil {
			e, err := regular.NewExec(spec, n)
			if err != nil {
				return err
			}
			execs[w] = e
		}
		return run(t, execs[w], rngs[t])
	})
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
