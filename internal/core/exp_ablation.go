package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Ablations beyond the paper's claims:
//
//	A1 — the paper's concluding open question asks whether *randomised
//	     algorithms* can defeat worst-case profiles. The natural first
//	     candidate — randomising the order of the a subproblems at every
//	     node — is tested against M_{8,4}(n).
//	A2 — validates the square-profile reduction the whole model rests on:
//	     a dynamic-capacity LRU on raw profiles vs the square-semantics
//	     cache on their inner-square reductions.
//	A3 — sweeps the scan exponent c to locate the adaptivity threshold
//	     (Theorem 2 puts it exactly at c = 1 for a > b).

func init() {
	register(Experiment{
		ID:      "A1",
		Source:  "Conclusion (open question: randomised algorithms)",
		Summary: "Randomising each node's subproblem order does not escape the worst-case profile",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runA1,
	})
	register(Experiment{
		ID:      "A2",
		Source:  "Definition 1 / the square-profile reduction of [5]",
		Summary: "Raw-profile LRU cost vs inner-square-profile square-cache cost agree within a small constant",
		Inputs:  InputSeed,
		Run:     runA2,
	})
	register(Experiment{
		ID:      "A3",
		Source:  "Theorem 2 (the role of c)",
		Summary: "Gap on M_{8,4} as the scan exponent c sweeps 0..1: the log gap appears only at c = 1",
		Inputs:  InputMaxK,
		Run:     runA3,
	})
}

func runA1(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	t := &Table{
		ID:     "A1",
		Title:  "Randomised subproblem order vs the worst-case profile (trace backend)",
		Header: []string{"workload", "size", "metric", "canonical", "randomised mean", "ci95"},
	}
	rng := xrand.New(cfg.Seed ^ 0xa1)
	maxK := cfg.MaxK
	if maxK > 6 {
		maxK = 6 // trace cost is Θ(n^{3/2}) per trial
	}
	trials := cfg.Trials
	if trials > 8 {
		trials = 8
	}

	// Part 1: the synthetic canonical trace, where same-slot siblings share
	// their entire working set.
	var ks, means []float64
	for k := 3; k <= maxK; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			return nil, err
		}
		// gapOf streams a generated trace straight into the square cache —
		// the trace is never materialized.
		gapOf := func(emit func(trace.Sink) error) (float64, error) {
			src, err := profile.NewSliceSource(wc)
			if err != nil {
				return 0, err
			}
			return squareGap(spec, n, emit, src)
		}

		canon, err := gapOf(func(s trace.Sink) error {
			return regular.EmitSynthetic(spec, n, s)
		})
		if err != nil {
			return nil, err
		}
		var gaps []float64
		for trial := 0; trial < trials; trial++ {
			g, err := gapOf(func(s trace.Sink) error {
				return regular.EmitSyntheticShuffled(spec, n, rng, s)
			})
			if err != nil {
				return nil, err
			}
			gaps = append(gaps, g)
		}
		s := stats.Summarize(gaps)
		t.AddRow("synthetic (full sibling overlap)", fmt.Sprintf("n=4^%d", k), "gap", canon, s.Mean, s.CI95())
		ks = append(ks, float64(k))
		means = append(means, s.Mean)
	}
	fit, err := stats.LinearFit(ks, means)
	if err != nil {
		return nil, err
	}

	// Part 2: the real MM-Scan trace, where consecutive products share at
	// most one input quadrant.
	const bw = 8
	for _, dim := range []int{32, 64, 128} {
		canon, err := mmScanRuns(dim, bw, 8, func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) })
		if err != nil {
			return nil, err
		}
		var counts []float64
		for trial := 0; trial < trials; trial++ {
			// The shuffled generator draws its order from rng as it runs, so
			// each emission rewinds rng to the trial's starting state: every
			// replay sees the same trace, and rng ends one emission on.
			start := *rng
			c, err := mmScanRuns(dim, bw, 8, func(s trace.Sink) error {
				*rng = start
				return matrix.EmitMulScanShuffled(dim, bw, rng, s)
			})
			if err != nil {
				return nil, err
			}
			counts = append(counts, float64(c))
		}
		s := stats.Summarize(counts)
		t.AddRow("real MM-Scan", fmt.Sprintf("dim=%d", dim), "multiplies", float64(canon), s.Mean, s.CI95())
	}

	t.Note = fmt.Sprintf("the answer to the paper's open question is workload-dependent: with full working-set overlap between same-slot siblings, random order lets boxes serve several siblings and the gap collapses to O(1) (slope %+.3f/level vs the canonical +1.0); but for real MM-Scan — whose products write distinct temporaries — random order still completes exactly the canonical number of multiplies on the adversary's profile. Order randomisation alone does not defeat M_{a,b}.", fit.Beta)
	return t, nil
}

func runA2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Square-profile reduction: raw-profile LRU vs inner-square square-cache (canonical (8,4,1) trace, n=4^6)",
		Header: []string{"raw profile", "LRU misses (raw)", "square boxes", "square-cache IOs", "IO ratio"},
	}
	// Only the walk draws from the seed; the sawtooth and constant rows
	// are the same at every seed and computed once per process.
	rawProfiles := []struct {
		name     string
		seedFree bool
		raw      func() (profile.Raw, error)
	}{
		{"sawtooth[16..1024]", true, func() (profile.Raw, error) { return profile.Sawtooth(16, 1024, 4096, a2Horizon) }},
		{"walk[16..1024]", false, func() (profile.Raw, error) {
			return profile.RandomWalk(xrand.New(cfg.Seed^0xa2), 256, 16, 1024, 32, a2Horizon)
		}},
		{"constant[256]", true, func() (profile.Raw, error) { return profile.Constant(256, a2Horizon) }},
	}

	var worstRatio float64
	for _, rp := range rawProfiles {
		measure := func() (a2Row, error) { return measureA2Row(rp.raw) }
		var r a2Row
		var err error
		if rp.seedFree {
			r, err = seedFree("A2 "+rp.name, measure)
		} else {
			r, err = measure()
		}
		if err != nil {
			return nil, err
		}
		ratio := float64(r.sqIOs) / float64(r.lruMisses)
		if r := maxf(ratio, 1/ratio); r > worstRatio {
			worstRatio = r
		}
		t.AddRow(rp.name, r.lruMisses, r.boxes, r.sqIOs, ratio)
	}
	t.Note = fmt.Sprintf("worst-case disagreement factor %.2f — the inner-square reduction costs within a small constant of the raw dynamic-capacity LRU, supporting the model's w.l.o.g. square-profile convention.", worstRatio)
	return t, nil
}

// a2Horizon is the length of A2's raw profiles.
const a2Horizon = 1 << 21

// a2Row is one A2 row's measurements: the raw profile's LRU misses and its
// inner-square reduction's box count and square-cache IOs.
type a2Row struct {
	lruMisses int64
	boxes     int
	sqIOs     int64
}

// measureA2Row replays the canonical (8,4,1) trace at n = 4^6 against the
// raw profile raw returns. The profile is streamed twice, once into the
// LRU replay (which reads a step per miss) and once through the reduction
// (which reads the whole horizon), so neither holds the horizon as a
// slice; raw must return the same steps on each call (the walk re-seeds
// its generator).
func measureA2Row(raw func() (profile.Raw, error)) (a2Row, error) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	emit := func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }
	r, err := raw()
	if err != nil {
		return a2Row{}, err
	}
	lruMisses, err := paging.RunLRUProfile(emit, n-1, r)
	if err != nil {
		return a2Row{}, err
	}
	if r, err = raw(); err != nil {
		return a2Row{}, err
	}
	sq, err := profile.SquarizeRaw(r)
	if err != nil {
		return a2Row{}, err
	}
	src, err := profile.NewSliceSource(sq)
	if err != nil {
		return a2Row{}, err
	}
	var sqIOs int64
	if err := paging.Replay(paging.SquareReplayName, emit, int64(spec.IOCost(n)), n-1, src, 0, func(b paging.BoxStat) {
		sqIOs += b.IOs
	}); err != nil {
		return a2Row{}, err
	}
	return a2Row{lruMisses: lruMisses, boxes: sq.Len(), sqIOs: sqIOs}, nil
}

// squareGap replays a generated n-block stream under square semantics
// against src and returns its gap: the boxes' summed bounded potential
// over n^{log_b a}.
func squareGap(spec regular.Spec, n int64, emit func(trace.Sink) error, src profile.Source) (float64, error) {
	pot := spec.Potentials(n)
	var sum float64
	err := paging.Replay(paging.SquareReplayName, emit, int64(spec.IOCost(n)), n-1, src, 0, func(b paging.BoxStat) {
		sum += pot.Of(b.Size)
	})
	if err != nil {
		return 0, err
	}
	return sum / spec.Potential(n), nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func runA3(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	t := &Table{
		ID:     "A3",
		Title:  "Scan-exponent sweep: trace-backed gap of (8,4,c) on M_{8,4}(n)",
		Header: []string{"c", "k", "n", "gap"},
	}
	maxK := cfg.MaxK
	if maxK > 6 {
		maxK = 6
	}
	var notes []string
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1} {
		spec, err := regular.NewSpec(8, 4, c)
		if err != nil {
			return nil, err
		}
		var ks, gaps []float64
		for k := 3; k <= maxK; k++ {
			n := profile.Pow(4, k)
			wc, err := profile.WorstCase(8, 4, n)
			if err != nil {
				return nil, err
			}
			src, err := profile.NewSliceSource(wc)
			if err != nil {
				return nil, err
			}
			gap, err := squareGap(spec, n, func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }, src)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.2f", c), k, n, gap)
			ks = append(ks, float64(k))
			gaps = append(gaps, gap)
		}
		fit, err := stats.LinearFit(ks, gaps)
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("c=%.2f: slope %+.3f/level", c, fit.Beta))
	}
	t.Note = joinNotes(notes) + " — the logarithmic growth switches on at c = 1, exactly where Theorem 2 places the threshold."
	return t, nil
}
