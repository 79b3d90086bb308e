package adaptivity

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/regular"
	"repro/internal/xrand"
)

// This file empirically checks the combinatorial core of the paper's main
// theorem: Lemma 3 and the semi-inductive recurrence of Equations 6–8.

// Lemma3Result collects the quantities in Lemma 3 for one problem size.
//
// The lemma (stated for a = 8, b = 4 in the paper; checked here for any
// (a,b,1) spec) says: with p = Pr[|□| >= n]·f(n/b),
//
//   - the probability q that the boxes completing the first subproblem
//     include a box of size >= n equals p exactly;
//   - the expected number of boxes to complete all a subproblems is
//     Σ_{i=1..a} (1-p)^{i-1}·f(n/b);
//   - the expected number of additional boxes for the final scan is
//     (1 - Θ(p))·Θ(n)/E[min(|□|, n)].
type Lemma3Result struct {
	Spec   regular.Spec
	N      int64
	Trials int

	FChild float64 // measured f(n/b)
	P      float64 // Pr[|□| >= n] · FChild (the lemma's p)
	Q      float64 // measured probability of a >= n box during the first subproblem
	QSE    float64 // standard error of Q

	SubBoxesFormula  float64 // Σ_{i=1..a} (1-p)^{i-1} · FChild
	SubBoxesMeasured float64 // measured f'(n)

	ScanBoxesMeasured  float64 // measured f(n) - f'(n)
	ScanBoxesPredicted float64 // (1-p̃)·n / E[min(|□|, n)], p̃ = 1-(1-p)^a
}

// CheckLemma3 estimates every quantity in Lemma 3 by Monte Carlo for an
// (a,b,1)-regular spec. It requires c = 1 (the lemma's setting). Its trials
// fan out on g, so they count as g's cells and stop when g's context is
// cancelled.
func CheckLemma3(g *engine.Group, spec regular.Spec, n int64, dist xrand.Dist, seed uint64, trials int) (Lemma3Result, error) {
	if spec.C != 1 {
		return Lemma3Result{}, fmt.Errorf("adaptivity: Lemma 3 check requires c = 1, got %v", spec)
	}
	if !spec.ValidSize(n) || n < spec.B {
		return Lemma3Result{}, fmt.Errorf("adaptivity: n = %d must be a power of b >= b", n)
	}
	if trials < 2 {
		return Lemma3Result{}, fmt.Errorf("adaptivity: need >= 2 trials")
	}
	res := Lemma3Result{Spec: spec, N: n, Trials: trials}

	// f(n/b) and q: run the size-n/b subproblem and watch for >= n boxes.
	child := n / spec.B
	boxesUsed := make([]int64, trials)
	sawBig := make([]bool, trials)
	if err := fanTrials(g, spec, child, seed, trials, func(t int, e *regular.Exec, rng *xrand.Source) error {
		e.Reset()
		for !e.Done() {
			box := dist.Sample(rng)
			e.Step(box)
			if box >= n {
				sawBig[t] = true
			}
		}
		boxesUsed[t] = e.BoxesUsed()
		return nil
	}); err != nil {
		return res, err
	}
	var sumF float64
	var bigBoxTrials int
	for t := 0; t < trials; t++ {
		sumF += float64(boxesUsed[t])
		if sawBig[t] {
			bigBoxTrials++
		}
	}
	res.FChild = sumF / float64(trials)
	res.Q = float64(bigBoxTrials) / float64(trials)
	res.QSE = math.Sqrt(res.Q * (1 - res.Q) / float64(trials))
	res.P = dist.TailProb(n) * res.FChild

	// Σ_{i=1..a} (1-p)^{i-1} f(n/b).
	pow := 1.0
	for i := int64(0); i < spec.A; i++ {
		res.SubBoxesFormula += pow * res.FChild
		pow *= 1 - res.P
	}

	// f(n) and f'(n) on the full problem.
	st, err := EstimateStoppingTimes(g, spec, n, dist, seed^0x5ca1ab1e, trials)
	if err != nil {
		return res, err
	}
	res.SubBoxesMeasured = st.FPrime
	res.ScanBoxesMeasured = st.F - st.FPrime

	pTilde := 1 - pow // 1 - (1-p)^a
	res.ScanBoxesPredicted = (1 - pTilde) * float64(n) / dist.MeanBoundedPow(n, 1)
	return res, nil
}

// RecurrencePoint holds the Equation 6/7 quantities at one problem size.
type RecurrencePoint struct {
	N        int64
	F        float64 // measured f(n)
	FPrime   float64 // measured f'(n)
	MN       float64 // m_n = E[min(|□|, n)^{log_b a}] (analytic)
	RatioLHS float64 // f(n)/f(n/b) — Equation 6's left side (can exceed the bound: scans)
	RatioEq7 float64 // f'(n)/f(n/b) — Equation 7's left side (the inequality that holds)
	RatioRHS float64 // a·m_{n/b}/m_n — the right side of both
	Eq9Holds bool    // f(n) >= C·n^{log_b a}/m_n (the regime where Eq. 7 applies)
	GapBound float64 // f(n)·m_n / n^{log_b a} — the normalised stopping time; O(1) iff adaptive in expectation (Equation 3)
}

// CheckRecurrence measures f and f' at each size in sizes (ascending powers
// of b) and evaluates the Equation 6–8 quantities. C is the Equation 9
// threshold constant. It returns the per-size points and the product
// Π f(n)/f'(n) over the sizes — Equation 8 asserts this product is O(1).
// Each size's trials fan out on g, as EstimateStoppingTimes describes.
func CheckRecurrence(g *engine.Group, spec regular.Spec, sizes []int64, dist xrand.Dist, seed uint64, trials int, c float64) ([]RecurrencePoint, float64, error) {
	if spec.C != 1 {
		return nil, 0, fmt.Errorf("adaptivity: recurrence check requires c = 1, got %v", spec)
	}
	e := spec.Exponent()
	for i, n := range sizes {
		if !spec.ValidSize(n) {
			return nil, 0, fmt.Errorf("adaptivity: size %d not a power of b", n)
		}
		if i > 0 && n != sizes[i-1]*spec.B {
			return nil, 0, fmt.Errorf("adaptivity: sizes must be consecutive powers of b, got %d after %d", n, sizes[i-1])
		}
	}

	// Each size's stopping-time estimate is an independent Monte-Carlo job
	// with its own derived seed. The sizes run in turn, each fanning its
	// trials out on g; the ratio pass below chains consecutive points.
	ests := make([]StoppingTimes, len(sizes))
	for i := range sizes {
		st, err := EstimateStoppingTimes(g, spec, sizes[i], dist, seed+uint64(i)*7919, trials)
		if err != nil {
			return nil, 0, err
		}
		ests[i] = st
	}

	points := make([]RecurrencePoint, 0, len(sizes))
	product := 1.0
	var prev *RecurrencePoint
	for i, n := range sizes {
		st := ests[i]
		pt := RecurrencePoint{
			N:      n,
			F:      st.F,
			FPrime: st.FPrime,
			MN:     dist.MeanBoundedPow(n, e),
		}
		pt.GapBound = pt.F * pt.MN / math.Pow(float64(n), e)
		pt.Eq9Holds = pt.F >= c*math.Pow(float64(n), e)/pt.MN
		if prev != nil {
			pt.RatioLHS = pt.F / prev.F
			pt.RatioEq7 = pt.FPrime / prev.F
			pt.RatioRHS = float64(spec.A) * prev.MN / pt.MN
		}
		if pt.FPrime > 0 {
			product *= pt.F / pt.FPrime
		}
		points = append(points, pt)
		prev = &points[len(points)-1]
	}
	return points, product, nil
}
