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
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	emit := func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }

	t := &Table{
		ID:     "A2",
		Title:  "Square-profile reduction: raw-profile LRU vs inner-square square-cache (canonical (8,4,1) trace, n=4^6)",
		Header: []string{"raw profile", "LRU misses (raw)", "square boxes", "square-cache IOs", "IO ratio"},
	}
	// Each raw profile is streamed twice, once into the LRU replay (which
	// reads a step per miss) and once through the reduction (which reads
	// the whole horizon), so neither holds the horizon as a slice. The walk
	// re-seeds its generator for each pass and so repeats its steps.
	const horizon = 1 << 21
	rawProfiles := []struct {
		name string
		raw  func() (profile.Raw, error)
	}{
		{"sawtooth[16..1024]", func() (profile.Raw, error) { return profile.Sawtooth(16, 1024, 4096, horizon) }},
		{"walk[16..1024]", func() (profile.Raw, error) {
			return profile.RandomWalk(xrand.New(cfg.Seed^0xa2), 256, 16, 1024, 32, horizon)
		}},
		{"constant[256]", func() (profile.Raw, error) { return profile.Constant(256, horizon) }},
	}

	var worstRatio float64
	for _, rp := range rawProfiles {
		raw, err := rp.raw()
		if err != nil {
			return nil, err
		}
		lruMisses, err := paging.RunLRUProfile(emit, n-1, raw)
		if err != nil {
			return nil, err
		}
		if raw, err = rp.raw(); err != nil {
			return nil, err
		}
		sq, err := profile.SquarizeRaw(raw)
		if err != nil {
			return nil, err
		}
		src, err := profile.NewSliceSource(sq)
		if err != nil {
			return nil, err
		}
		var sqIOs int64
		if err := paging.Replay(paging.SquareReplayName, emit, int64(spec.IOCost(n)), n-1, src, 0, func(b paging.BoxStat) {
			sqIOs += b.IOs
		}); err != nil {
			return nil, err
		}
		ratio := float64(sqIOs) / float64(lruMisses)
		if r := maxf(ratio, 1/ratio); r > worstRatio {
			worstRatio = r
		}
		t.AddRow(rp.name, lruMisses, sq.Len(), sqIOs, ratio)
	}
	t.Note = fmt.Sprintf("worst-case disagreement factor %.2f — the inner-square reduction costs within a small constant of the raw dynamic-capacity LRU, supporting the model's w.l.o.g. square-profile convention.", worstRatio)
	return t, nil
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
