package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, wantStd)
	}
	if s.SE() <= 0 || s.CI95() <= s.SE() {
		t.Error("SE/CI ordering wrong")
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Error("empty summary has N != 0")
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.SE() != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Alpha-1) > 1e-12 || math.Abs(f.Beta-2) > 1e-12 {
		t.Errorf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R2 = %g, want 1", f.R2)
	}
	if f.BetaSE > 1e-9 {
		t.Errorf("BetaSE = %g on exact data", f.BetaSE)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	src := xrand.New(99)
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i) / 10
		x = append(x, xi)
		y = append(y, 4+0.5*xi+0.1*norm(src))
	}
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Beta-0.5) > 3*f.BetaSE+1e-6 {
		t.Errorf("beta %g ± %g missed 0.5", f.Beta, f.BetaSE)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestClassifyGrowth(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	flat := []float64{2.0, 2.1, 1.9, 2.0, 2.05, 1.95}
	grow := []float64{1, 2, 3, 4, 5, 6}
	shrink := []float64{6, 5, 4, 3, 2, 1}

	if g, _, err := ClassifyGrowth(x, flat, 0.15); err != nil || g != GrowthFlat {
		t.Errorf("flat classified as %v (%v)", g, err)
	}
	if g, _, _ := ClassifyGrowth(x, grow, 0.15); g != GrowthLogarithmic {
		t.Errorf("growth classified as %v", g)
	}
	if g, _, _ := ClassifyGrowth(x, shrink, 0.15); g != GrowthShrinking {
		t.Errorf("shrink classified as %v", g)
	}
	if GrowthFlat.String() == "" || GrowthLogarithmic.String() == "" || GrowthShrinking.String() == "" {
		t.Error("growth strings empty")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", g)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := GeoMean([]float64{1, -2}); err == nil {
		t.Error("negative accepted")
	}
}

// Property: Summarize respects Min <= Mean <= Max, and LinearFit on an
// exact line recovers it.
func TestFitRecoversLineProperty(t *testing.T) {
	check := func(aRaw, bRaw int8, nRaw uint8) bool {
		alpha := float64(aRaw) / 4
		beta := float64(bRaw) / 4
		n := int(nRaw)%20 + 3
		var x, y []float64
		for i := 0; i < n; i++ {
			x = append(x, float64(i))
			y = append(y, alpha+beta*float64(i))
		}
		f, err := LinearFit(x, y)
		if err != nil {
			return false
		}
		return math.Abs(f.Alpha-alpha) < 1e-8 && math.Abs(f.Beta-beta) < 1e-8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	check := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// norm returns a standard normal sample (Box–Muller).
func norm(s *xrand.Source) float64 {
	u1 := s.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// GeoMean returns the geometric mean of strictly positive xs.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean needs positive values, got %g", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}
