package core

import (
	"fmt"

	"repro/internal/adaptivity"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/sorting"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// A5 probes the boundary the paper explicitly leaves open ("We leave the
// case of a = b for future work"): does i.i.d. smoothing close the gap for
// a = b, c = 1 algorithms (two-way merge sort, classic FFT)?
//
// The measured answer is no — and that is consistent with the theory: the
// paper's proof needs |a − b| >= Ω(1), and footnote 3 observes that a = b,
// c = 1 algorithms are already Θ(log(M/B)) from optimal in the DAM model,
// so no memory-profile distribution can rescue them.

func init() {
	register(Experiment{
		ID:      "A5",
		Source:  "Footnote 3 + the a = b future-work case",
		Summary: "i.i.d. smoothing does NOT close the gap at the a = b boundary (merge-sort-shaped algorithms)",
		Run:     runA5,
	})
}

func runA5(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  "The a = b boundary: i.i.d. smoothing vs the worst case",
		Header: []string{"family", "k", "n", "iid mean gap", "ci95", "worst-case gap"},
	}
	dist, err := xrand.NewUniform(4, 64)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed ^ 0xa5)
	var notes []string
	for _, spec := range []regular.Spec{regular.MustSpec(2, 2, 1), regular.MustSpec(4, 4, 1)} {
		// Comparable sizes across b: sweep k so n spans a few orders.
		var ks, means []float64
		maxK := cfg.MaxK
		if maxK < 8 {
			maxK = 8 // at least three sweep points regardless of MaxK
		}
		if spec.B == 2 {
			maxK *= 2 // match the 4^k sizes in magnitude
		}
		for k := 4; k <= maxK; k += 2 {
			n := profile.Pow(spec.B, k)
			gaps, err := adaptivity.GapOnDist(spec, n, dist, rng.Uint64(), cfg.Trials)
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(gaps)
			t.AddRow(spec.String(), k, n, s.Mean, s.CI95(), fmt.Sprintf("%d", k+1))
			ks = append(ks, float64(k))
			means = append(means, s.Mean)
		}
		fit, err := stats.LinearFit(ks, means)
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%v: iid slope %+.3f/level (worst case +1.0)", spec, fit.Beta))
	}

	// The real algorithm at this boundary: two-way merge sort. Count sorts
	// completed within its matched worst-case profile, ordered vs shuffled.
	const bw = 4
	for _, n := range []int{1 << 10, 1 << 12} {
		wc, err := sorting.WorstCaseProfile(n, bw)
		if err != nil {
			return nil, err
		}
		tr, err := sorting.TraceMergeSort(n, bw)
		if err != nil {
			return nil, err
		}
		const reps = 8
		// Stream the fresh-address repetitions straight into the square
		// finisher for each profile — the repeated trace is never built.
		countSorts := func(boxes []int64) (int, error) {
			src, err := profile.NewBoxesSource(boxes)
			if err != nil {
				return 0, err
			}
			f := paging.NewSquareFinisher(src, int64(len(boxes)))
			trace.ReplayRepeat(tr, f, reps, tr.MaxBlock()+1)
			if err := f.Err(); err != nil {
				return 0, err
			}
			return int(f.Served()), nil
		}
		endOrdered, err := countSorts(wc.Boxes())
		if err != nil {
			return nil, err
		}
		sh := smoothing.Shuffle(wc, rng)
		endShuffled, err := countSorts(sh.Boxes())
		if err != nil {
			return nil, err
		}
		t.AddRow("real merge sort (trace)", "-", n,
			fmt.Sprintf("shuffled profile: %d sorts", endShuffled/tr.Len()),
			"-",
			fmt.Sprintf("ordered profile: %d sorts", endOrdered/tr.Len()))
	}

	t.Note = joinNotes(notes) + " — unlike the a > b case (E3), shuffling the boxes barely moves the a = b gap: smoothing cannot rescue merge-sort-shaped algorithms, matching footnote 3's DAM-level obstruction."
	return t, nil
}
