package core

import (
	"fmt"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// This file implements the smoothing experiments: E3 (Theorem 1 — i.i.d.
// box sizes close the gap) and E6–E8 (the three weaker smoothings that
// fail). E3, E6 and E7 fan their Monte-Carlo cells out on the engine
// through sweep, with per-cell xrand.Split seeds, so their tables are
// identical for any worker count; E8's trials are few and cheap enough to
// stay serial.

func init() {
	register(Experiment{
		ID:      "E3",
		Source:  "Theorem 1 / Theorem 3",
		Summary: "i.i.d. box sizes from arbitrary distributions (and literal shuffles of the adversary's boxes) make (8,4,1) cache-adaptive in expectation",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE3,
	})
	register(Experiment{
		ID:      "E6",
		Source:  "Robustness: box-size perturbations",
		Summary: "Multiplying each worst-case box by an i.i.d. factor in [1,t] leaves the profile worst-case in expectation",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE6,
	})
	register(Experiment{
		ID:      "E7",
		Source:  "Robustness: start-time perturbations",
		Summary: "A random cyclic start time leaves the expected gap logarithmic",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE7,
	})
	register(Experiment{
		ID:      "E8",
		Source:  "Robustness: box-order perturbations",
		Summary: "Placing each level's box after a random recursive instance remains worst-case (with prob. 1 for the aligned (a,b,1) witness)",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE8,
	})
}

// gapCurve collects mean gaps for k = kMin..kMax and fits the slope.
type gapCurve struct {
	ks    []float64
	means []float64
}

// add records level k's mean gap and returns the level's summary.
func (g *gapCurve) add(k int, gaps []float64) stats.Summary {
	s := stats.Summarize(gaps)
	g.ks = append(g.ks, float64(k))
	g.means = append(g.means, s.Mean)
	return s
}

func (g *gapCurve) slope() (stats.Fit, error) { return stats.LinearFit(g.ks, g.means) }

// trimmedTrials caps the Monte-Carlo repetitions for the largest profile
// sizes (k >= fromK), where a trial runs over millions of boxes. The cap
// is part of the tables' configuration: the golden tables pin it.
func trimmedTrials(trials, k, fromK int) int {
	if k >= fromK && trials > 8 {
		return 8
	}
	return trials
}

// worstCases materialises the M_{8,4}(4^k) worst-case profile for each
// k = kMin..kMax once, up front and serially; the engine workers then share
// them read-only.
func worstCases(kMin, kMax int) (map[int]*profile.SquareProfile, error) {
	wcs := make(map[int]*profile.SquareProfile, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		wc, err := profile.WorstCase(8, 4, profile.Pow(4, k))
		if err != nil {
			return nil, err
		}
		wcs[k] = wc
	}
	return wcs, nil
}

func runE3(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	nMax := profile.Pow(4, cfg.MaxK)

	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		return nil, err
	}
	pl, err := xrand.NewPowerLaw(4, cfg.MaxK, 0.75)
	if err != nil {
		return nil, err
	}
	tp, err := xrand.NewTwoPoint(4, nMax, 0.01)
	if err != nil {
		return nil, err
	}
	wcd, err := xrand.WorstCaseBoxDist(8, 4, nMax)
	if err != nil {
		return nil, err
	}
	dists := []xrand.Dist{uni, pl, tp, wcd}

	t := &Table{
		ID:     "E3",
		Title:  "Theorem 1: expected gap under i.i.d. box sizes (and literal shuffles)",
		Header: []string{"distribution", "k", "n", "mean gap", "ci95", "worst-case gap"},
	}
	g := engine.NewGroup().WithContext(cfg.Context())

	// i.i.d. part: one engine cell per (distribution, size, trial).
	gaps, err := sweep(g, len(dists), 3, cfg.MaxK, func(int) int { return cfg.Trials },
		func(ws *workerState, d, k, trial int) (float64, error) {
			e, err := ws.exec(spec, profile.Pow(4, k))
			if err != nil {
				return 0, err
			}
			seed := xrand.Split(cfg.Seed, "E3", int64(d), int64(k), int64(trial))
			return adaptivity.GapSampleExec(e, dists[d], seed)
		})
	if err != nil {
		return nil, err
	}
	var notes []string
	for d, dist := range dists {
		var curve gapCurve
		for k := 3; k <= cfg.MaxK; k++ {
			s := curve.add(k, gaps[d][k-3])
			t.AddRow(dist.Name(), k, profile.Pow(4, k), s.Mean, s.CI95(), fmt.Sprintf("%d", k+1))
		}
		fit, err := curve.slope()
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%s: slope %+.3f/level (worst case: +1.0)", dist.Name(), fit.Beta))
	}

	// Literal shuffle of the adversary's own boxes: each worst-case profile
	// is recoded once as a byte index shared read-only; each cell shuffles
	// a copy of it in its worker's buffer.
	wcs, err := worstCases(3, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	shIdx := make(map[int]*smoothing.ShuffleIndex, len(wcs))
	for k := 3; k <= cfg.MaxK; k++ {
		if shIdx[k], err = smoothing.NewShuffleIndex(wcs[k]); err != nil {
			return nil, err
		}
	}
	shGaps, err := sweep(g, 1, 3, cfg.MaxK, func(k int) int { return trimmedTrials(cfg.Trials, k, 7) },
		func(ws *workerState, _, k, trial int) (float64, error) {
			e, err := ws.exec(spec, profile.Pow(4, k))
			if err != nil {
				return 0, err
			}
			rng := xrand.New(xrand.Split(cfg.Seed, "E3/shuffle", int64(k), int64(trial)))
			ws.shuffled.Reset(shIdx[k], rng)
			res, err := adaptivity.GapOnSourceExec(e, &ws.shuffled)
			return res.Gap(), err
		})
	if err != nil {
		return nil, err
	}
	var curve gapCurve
	for k := 3; k <= cfg.MaxK; k++ {
		s := curve.add(k, shGaps[0][k-3])
		t.AddRow("shuffle(M_{8,4})", k, profile.Pow(4, k), s.Mean, s.CI95(), fmt.Sprintf("%d", k+1))
	}
	fit, err := curve.slope()
	if err != nil {
		return nil, err
	}
	notes = append(notes, fmt.Sprintf("shuffle(M_{8,4}): slope %+.3f/level", fit.Beta))
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

func runE6(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	t := &Table{
		ID:     "E6",
		Title:  "Box-size perturbation |□|·X, X ~ U{1..t}: gap keeps growing",
		Header: []string{"t", "k", "n", "mean gap", "ci95", "t<=sqrt(n)"},
	}
	factors := []int64{2, 4, 16}
	wcs, err := worstCases(3, cfg.MaxK)
	if err != nil {
		return nil, err
	}

	g := engine.NewGroup().WithContext(cfg.Context())
	gaps, err := sweep(g, len(factors), 3, cfg.MaxK, func(k int) int { return trimmedTrials(cfg.Trials, k, 7) },
		func(ws *workerState, r, k, trial int) (float64, error) {
			e, err := ws.exec(spec, profile.Pow(4, k))
			if err != nil {
				return 0, err
			}
			rng := xrand.New(xrand.Split(cfg.Seed, "E6", factors[r], int64(k), int64(trial)))
			if err := ws.perturbed.Reset(wcs[k], rng, factors[r]); err != nil {
				return 0, err
			}
			res, err := adaptivity.GapOnSourceExec(e, &ws.perturbed)
			return res.Gap(), err
		})
	if err != nil {
		return nil, err
	}

	var notes []string
	for r, tf := range factors {
		// The paper's condition is t <= √n, i.e. k >= 2·log_4(t); only
		// those sizes enter the slope fit.
		minValidK := 0
		for p := int64(1); p < tf; p *= 2 {
			minValidK++
		}
		var curve gapCurve
		for k := 3; k <= cfg.MaxK; k++ {
			kGaps := gaps[r][k-3]
			s, valid := stats.Summary{}, "yes"
			if k >= minValidK {
				s = curve.add(k, kGaps)
			} else {
				s, valid = stats.Summarize(kGaps), "no (t>√n)"
			}
			t.AddRow(tf, k, profile.Pow(4, k), s.Mean, s.CI95(), valid)
		}
		if len(curve.ks) < 2 {
			notes = append(notes, fmt.Sprintf("t=%d: too few t<=√n sizes at this MaxK for a slope fit", tf))
			continue
		}
		fit, err := curve.slope()
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("t=%d: slope %+.3f/level over the t<=√n sizes (worst case: +1.0; any persistent positive slope = still worst-case in expectation)", tf, fit.Beta))
	}
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

func runE7(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	t := &Table{
		ID:     "E7",
		Title:  "Start-time perturbation (random cyclic shift): expected gap stays logarithmic",
		Header: []string{"k", "n", "mean gap", "ci95", "min", "max", "worst-case gap"},
	}
	wcs, err := worstCases(3, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	rotIdx := make(map[int]*smoothing.RotationIndex, len(wcs))
	for k := 3; k <= cfg.MaxK; k++ {
		if rotIdx[k], err = smoothing.NewRotationIndex(wcs[k]); err != nil {
			return nil, err
		}
	}

	g := engine.NewGroup().WithContext(cfg.Context())
	gaps, err := sweep(g, 1, 3, cfg.MaxK, func(k int) int { return trimmedTrials(cfg.Trials, k, 7) },
		func(ws *workerState, _, k, trial int) (float64, error) {
			e, err := ws.exec(spec, profile.Pow(4, k))
			if err != nil {
				return 0, err
			}
			rng := xrand.New(xrand.Split(cfg.Seed, "E7", int64(k), int64(trial)))
			ws.rotated.Reset(rotIdx[k], rng)
			res, err := adaptivity.GapOnSourceExec(e, &ws.rotated)
			return res.Gap(), err
		})
	if err != nil {
		return nil, err
	}

	var curve gapCurve
	for k := 3; k <= cfg.MaxK; k++ {
		s := curve.add(k, gaps[0][k-3])
		t.AddRow(k, profile.Pow(4, k), s.Mean, s.CI95(), s.Min, s.Max, fmt.Sprintf("%d", k+1))
	}
	fit, err := curve.slope()
	if err != nil {
		return nil, err
	}
	t.Note = fmt.Sprintf("slope %+.3f/level: the expected gap keeps growing — random start times do not smooth the adversary.", fit.Beta)
	finishMetrics(t, g)
	return t, nil
}

func runE8(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	t := &Table{
		ID:     "E8",
		Title:  "Box-order perturbation: canonical algorithm vs the aligned (a,b,1)-regular witness",
		Header: []string{"k", "n", "canonical mean gap", "aligned gap (every seed)", "full gap"},
	}
	rng := xrand.New(cfg.Seed ^ 0xe8)
	for k := 2; k <= cfg.MaxK-1; k++ {
		n := profile.Pow(4, k)

		// Canonical end-scan algorithm on randomly order-perturbed profiles.
		var gaps []float64
		for trial := 0; trial < trimmedTrials(cfg.Trials, k, 6); trial++ {
			op, err := smoothing.OrderPerturbed(8, 4, n, rng)
			if err != nil {
				return nil, err
			}
			res, err := adaptivity.GapOnProfile(spec, n, op)
			if err != nil {
				return nil, err
			}
			gaps = append(gaps, res.Gap())
		}
		canonical := stats.Summarize(gaps).Mean

		// Aligned witness: same profile family, scan placement matching the
		// box placement, strict scans. Gap is k+1 exactly for every seed.
		alignedGaps := make([]float64, 0, 4)
		for s := uint64(0); s < 4; s++ {
			seed := cfg.Seed + s
			p, err := smoothing.OrderPerturbedAligned(8, 4, n, seed)
			if err != nil {
				return nil, err
			}
			e, err := regular.NewExecWithPolicy(spec, n, smoothing.AlignedScanPolicy(8, seed))
			if err != nil {
				return nil, err
			}
			if err := e.SetStrictScans(true); err != nil {
				return nil, err
			}
			src, err := profile.NewSliceSource(p)
			if err != nil {
				return nil, err
			}
			res, err := adaptivity.GapOnSourceExec(e, src)
			if err != nil {
				return nil, err
			}
			alignedGaps = append(alignedGaps, res.Gap())
		}
		al := stats.Summarize(alignedGaps)
		if al.Min != al.Max {
			return nil, fmt.Errorf("E8: aligned gap varied across seeds at k=%d: %v", k, alignedGaps)
		}
		t.AddRow(k, n, canonical, al.Mean, fmt.Sprintf("%d", k+1))
	}
	t.Note = "the aligned witness — an (a,b,1)-regular algorithm whose scan placement matches the profile's box placement (allowed by Definition 2) — suffers the full log gap with probability one; the canonical end-scan algorithm drifts ahead and extracts more, which is why the worst-case claim is class-level."
	return t, nil
}
