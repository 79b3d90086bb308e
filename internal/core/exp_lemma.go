package core

import (
	"fmt"
	"math"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/xrand"
)

// This file implements E4 (Lemma 3's identities) and E5 (the Equation 6–8
// recurrence structure).

func init() {
	register(Experiment{
		ID:      "E4",
		Source:  "Lemma 3",
		Summary: "q = p = Pr[|□|>=n]·f(n/4); subproblem and scan box-count formulas match simulation",
		Inputs:  InputSeed | InputTrials,
		Run:     runE4,
	})
	register(Experiment{
		ID:      "E5",
		Source:  "Equations 3, 6-8",
		Summary: "Stopping-time recurrence: f(n)/f(n/4) vs 8·m_{n/4}/m_n, the Π f/f' product, and the normalised stopping time f·m_n/n^{3/2}",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE5,
	})
}

func runE4(cfg Config) (*Table, error) {
	spec := regular.MMScanSpec
	uni, err := xrand.NewUniform(8, 128)
	if err != nil {
		return nil, err
	}
	tp, err := xrand.NewTwoPoint(4, 1024, 0.03)
	if err != nil {
		return nil, err
	}
	pl, err := xrand.NewPowerLaw(4, 6, 0.9)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "E4",
		Title:  "Lemma 3: the stopping-time identities under i.i.d. boxes",
		Header: []string{"distribution", "n", "f(n/4)", "p", "q", "q se", "f' formula", "f' measured", "scan formula", "scan measured"},
	}
	// Lemma-3 Monte Carlo needs many trials for the q estimate; scale the
	// configured trial count up since individual trials are cheap at these
	// sizes. The nine (distribution, n) checks run in turn with
	// Split-derived seeds, each fanning its trials out on the run's group.
	trials := cfg.Trials * 150
	dists := []xrand.Dist{uni, tp, pl}
	ns := []int64{64, 256, 1024}
	results := make([]adaptivity.Lemma3Result, len(dists)*len(ns))
	g := engine.NewGroup().WithContext(cfg.Context())
	for i := range results {
		d, n := dists[i/len(ns)], ns[i%len(ns)]
		seed := xrand.Split(cfg.Seed, "E4", int64(i/len(ns)), n)
		res, err := adaptivity.CheckLemma3(g, spec, n, d, seed, trials)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	var worstQErr float64
	for i, res := range results {
		t.AddRow(dists[i/len(ns)].Name(), ns[i%len(ns)], res.FChild, res.P, res.Q, res.QSE,
			res.SubBoxesFormula, res.SubBoxesMeasured,
			res.ScanBoxesPredicted, res.ScanBoxesMeasured)
		if e := math.Abs(res.Q - res.P); e > worstQErr {
			worstQErr = e
		}
	}
	t.Note = fmt.Sprintf("max |q - p| = %.4f across all rows (lemma: q = p exactly); f' formula Σ(1-p)^{i-1}f(n/4) matches measurement; the scan column is a Θ-level prediction (constants unspecified by the lemma).", worstQErr)
	finishMetrics(t, g)
	return t, nil
}

func runE5(cfg Config) (*Table, error) {
	spec := regular.MMScanSpec
	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		return nil, err
	}
	var sizes []int64
	for k := 2; k <= cfg.MaxK; k++ {
		sizes = append(sizes, profile.Pow(4, k))
	}
	g := engine.NewGroup().WithContext(cfg.Context())
	points, product, err := adaptivity.CheckRecurrence(g, spec, sizes, uni, cfg.Seed^0xe5, cfg.Trials*10, 4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E5",
		Title:  "Equations 3 & 6-8: the semi-inductive recurrence under Σ = uniform[4,64]",
		Header: []string{"n", "f(n)", "f'(n)", "m_n", "f/f(n/4) [Eq6]", "f'/f(n/4) [Eq7]", "8·m_{n/4}/m_n", "f·m_n/n^1.5", "Eq9 regime"},
	}
	eq7Violations := 0
	for _, p := range points {
		lhs, lhs7, rhs := "-", "-", "-"
		if p.RatioLHS > 0 {
			lhs = fmt.Sprintf("%.3f", p.RatioLHS)
			lhs7 = fmt.Sprintf("%.3f", p.RatioEq7)
			rhs = fmt.Sprintf("%.3f", p.RatioRHS)
			if p.Eq9Holds && p.RatioEq7 > p.RatioRHS*1.02 {
				eq7Violations++
			}
		}
		t.AddRow(p.N, p.F, p.FPrime, p.MN, lhs, lhs7, rhs, p.GapBound, p.Eq9Holds)
	}
	t.Note = fmt.Sprintf("Equation 6 can exceed the bound (scans) — that is exactly why the paper works with f'; Equation 7 holds in the Eq-9 regime (%d violations). Π f/f' over all sizes = %.3f (Equation 8: bounded by a constant); f·m_n/n^1.5 is the Equation-3 quantity — bounded ⇔ cache-adaptive in expectation.", eq7Violations, product)
	finishMetrics(t, g)
	return t, nil
}
