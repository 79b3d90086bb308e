// Package stats provides the summary statistics and regression fits the
// experiments use to classify growth rates: the core question in every
// experiment is whether a measured gap(n) curve is Θ(1) (cache-adaptive) or
// Θ(log n) (the worst-case gap), which we answer by fitting gap against
// log_b n and inspecting the slope.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the moments of a sample.
type Summary struct {
	N    int
	Mean float64
	// Std is the sample standard deviation (n-1 denominator).
	Std      float64
	Min, Max float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary with N = 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// SE returns the standard error of the mean.
func (s Summary) SE() float64 {
	if s.N <= 1 {
		return 0
	}
	return s.Std / math.Sqrt(float64(s.N))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (s Summary) CI95() float64 { return 1.96 * s.SE() }

func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4g ±%.2g (n=%d, min=%.4g, max=%.4g)", s.Mean, s.CI95(), s.N, s.Min, s.Max)
}

// Fit is an ordinary-least-squares line y = Alpha + Beta·x.
type Fit struct {
	Alpha, Beta float64
	// BetaSE is the standard error of Beta under the usual homoskedastic
	// model; BetaCI95 half-width is 1.96·BetaSE (normal approximation —
	// the experiments have enough points that the t correction is noise).
	BetaSE float64
	// R2 is the coefficient of determination.
	R2 float64
}

// LinearFit fits y = alpha + beta·x by least squares. It needs at least
// two points with distinct x values.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: x and y lengths differ (%d vs %d)", len(x), len(y))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(x))
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: all x values identical")
	}
	beta := sxy / sxx
	alpha := my - beta*mx
	var sse float64
	for i := range x {
		r := y[i] - (alpha + beta*x[i])
		sse += r * r
	}
	f := Fit{Alpha: alpha, Beta: beta}
	if syy > 0 {
		f.R2 = 1 - sse/syy
	} else {
		f.R2 = 1 // perfectly flat data perfectly fit
	}
	if len(x) > 2 {
		f.BetaSE = math.Sqrt(sse / (n - 2) / sxx)
	}
	return f, nil
}

// BetaCI95 returns the half-width of the 95% CI on the slope.
func (f Fit) BetaCI95() float64 { return 1.96 * f.BetaSE }

func (f Fit) String() string {
	return fmt.Sprintf("y = %.4g + %.4g·x (±%.2g, R²=%.3f)", f.Alpha, f.Beta, f.BetaCI95(), f.R2)
}

// Growth classifies a curve y(x) measured at increasing x (typically
// x = log_b n) as constant or logarithmic by comparing the fitted slope
// against slopeEps: |beta| <= slopeEps → "O(1)"; beta > slopeEps →
// "Θ(log n)"-like growth; beta < -slopeEps → "shrinking".
type Growth int

// Growth classes.
const (
	GrowthFlat Growth = iota
	GrowthLogarithmic
	GrowthShrinking
)

func (g Growth) String() string {
	switch g {
	case GrowthFlat:
		return "O(1)"
	case GrowthLogarithmic:
		return "Θ(log n)"
	case GrowthShrinking:
		return "shrinking"
	default:
		return "unknown"
	}
}

// ClassifyGrowth fits y against x and classifies the slope.
func ClassifyGrowth(x, y []float64, slopeEps float64) (Growth, Fit, error) {
	f, err := LinearFit(x, y)
	if err != nil {
		return GrowthFlat, Fit{}, err
	}
	switch {
	case f.Beta > slopeEps:
		return GrowthLogarithmic, f, nil
	case f.Beta < -slopeEps:
		return GrowthShrinking, f, nil
	default:
		return GrowthFlat, f, nil
	}
}
