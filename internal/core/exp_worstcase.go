package core

import (
	"fmt"
	"math"

	"repro/internal/adaptivity"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
)

// This file implements E1 (Figure 1: the worst-case profile) and E2
// (Theorem 2: the adaptivity dichotomy by (a,b,c)).

func init() {
	register(Experiment{
		ID:      "E1",
		Source:  "Figure 1 / Section 3",
		Summary: "Construct the recursive worst-case profile M_{8,4}(n) for MM-Scan and verify its potential is Θ(n^{3/2}·log n)",
		Run:     runE1,
	})
	register(Experiment{
		ID:      "E2",
		Source:  "Theorem 2",
		Summary: "Adaptivity dichotomy: (8,4,1) suffers a Θ(log n) gap on its worst-case profile; a<b or c<1 stay O(1)",
		Run:     runE2,
	})
}

func runE1(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	t := &Table{
		ID:     "E1",
		Title:  "Worst-case profile M_{8,4}(n): the Figure-1 construction",
		Header: []string{"k", "n=4^k", "boxes", "duration(IOs)", "potential", "pot/n^1.5", "expected"},
	}
	e := regular.MMScanSpec.Exponent()
	for k := 1; k <= cfg.MaxK; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			return nil, err
		}
		pot := wc.Potential(e)
		analytic, err := profile.WorstCasePotential(8, 4, n)
		if err != nil {
			return nil, err
		}
		if math.Abs(pot-analytic) > 1e-6*analytic {
			return nil, fmt.Errorf("E1: materialised potential %g != analytic %g at n=%d", pot, analytic, n)
		}
		t.AddRow(k, n, wc.Len(), wc.Duration(), pot, pot/math.Pow(float64(n), e), fmt.Sprintf("%d", k+1))
	}
	t.Note = "pot/n^1.5 = log_4(n)+1 exactly: the profile carries a full log-factor of excess potential that MM-Scan cannot convert into progress."
	return t, nil
}

// e2Case is one algorithm family of Theorem 2's dichotomy.
type e2Case struct {
	label    string
	spec     regular.Spec
	profA    int64 // worst-case profile constants (the MM-Scan adversary)
	profB    int64
	useTrace bool // c < 1 needs the ground-truth trace backend
}

func runE2(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	cases := []e2Case{
		{"(8,4,1) MM-Scan", regular.MMScanSpec, 8, 4, false},
		{"(7,4,1) Strassen-shaped", regular.StrassenSpec, 7, 4, false},
		{"(4,2,1) LCS/DP", regular.LCSSpec, 4, 2, false},
		{"(2,4,1) a<b", regular.MustSpec(2, 4, 1), 2, 4, false},
		{"(8,4,0) MM-InPlace", regular.MMInPlaceSpec, 8, 4, true},
		{"(4,4,1) a=b (boundary)", regular.MustSpec(4, 4, 1), 4, 4, false},
	}
	t := &Table{
		ID:     "E2",
		Title:  "Theorem 2: gap on the worst-case profile, by algorithm family",
		Header: []string{"family", "k", "n", "potential gap", "op gap"},
	}
	var notes []string
	for _, c := range cases {
		maxK := cfg.MaxK
		if c.useTrace && maxK > 7 {
			maxK = 7 // trace backend materialises T(n) references
		}
		// For a < b the paper's footnote applies the operation-based
		// efficiency reading (the algorithm runs in linear time, so every
		// box's I/O-time is fully used); the base-case potential reading
		// is the criterion for a >= b.
		opBased := c.spec.A < c.spec.B
		var ks, gaps []float64
		for k := 2; k <= maxK; k++ {
			n := profile.Pow(c.profB, k)
			wc, err := profile.WorstCase(c.profA, c.profB, n)
			if err != nil {
				return nil, err
			}
			var res adaptivity.RunResult
			if c.useTrace {
				src, err := profile.NewSliceSource(wc)
				if err != nil {
					return nil, err
				}
				res, err = adaptivity.MeasureTracePolicy(c.spec, n, paging.SquareReplayName, src, 0)
				if err != nil {
					return nil, err
				}
			} else {
				var err error
				res, err = adaptivity.GapOnProfile(c.spec, n, wc)
				if err != nil {
					return nil, err
				}
			}
			ks = append(ks, float64(k))
			if opBased {
				gaps = append(gaps, res.OpGap())
			} else {
				gaps = append(gaps, res.Gap())
			}
			t.AddRow(c.label, k, n, res.Gap(), res.OpGap())
		}
		growth, fit, err := stats.ClassifyGrowth(ks, gaps, 0.15)
		if err != nil {
			return nil, err
		}
		// Expected class per Theorem 2.
		expect := "Θ(log n)"
		if c.spec.Adaptive() {
			expect = "O(1)"
		}
		metric := "potential"
		if opBased {
			metric = "op (footnote-4 reading for a<b)"
		}
		notes = append(notes, fmt.Sprintf("%s [%s]: slope %.3f/level -> %s (theorem: %s)", c.label, metric, fit.Beta, growth, expect))
	}
	t.Note = joinNotes(notes)
	return t, nil
}

func joinNotes(notes []string) string {
	out := ""
	for i, n := range notes {
		if i > 0 {
			out += " | "
		}
		out += n
	}
	return out
}
