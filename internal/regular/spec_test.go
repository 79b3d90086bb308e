package regular

import (
	"math"
	"testing"
)

func TestNewSpecValidation(t *testing.T) {
	cases := []struct {
		a, b int64
		c    float64
		ok   bool
	}{
		{8, 4, 1, true},
		{8, 4, 0, true},
		{2, 4, 1, true},
		{1, 2, 0.5, true},
		{8, 1, 1, false},  // b too small
		{0, 4, 1, false},  // a too small
		{8, 4, -1, false}, // c below range
		{8, 4, 2, false},  // c above range (paper: no known c > 1 algorithms)
	}
	for _, tc := range cases {
		_, err := NewSpec(tc.a, tc.b, tc.c)
		if (err == nil) != tc.ok {
			t.Errorf("NewSpec(%d,%d,%g): err = %v, want ok=%v", tc.a, tc.b, tc.c, err, tc.ok)
		}
	}
}

func TestExponent(t *testing.T) {
	if got := MMScanSpec.Exponent(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("(8,4,1) exponent = %g, want 1.5", got)
	}
	if got := LCSSpec.Exponent(); math.Abs(got-2) > 1e-12 {
		t.Errorf("(4,2,1) exponent = %g, want 2", got)
	}
	if got := StrassenSpec.Exponent(); math.Abs(got-math.Log(7)/math.Log(4)) > 1e-12 {
		t.Errorf("(7,4,1) exponent = %g", got)
	}
}

func TestAdaptiveRule(t *testing.T) {
	// Theorem 2: adaptive iff c < 1 or a < b.
	cases := []struct {
		s    Spec
		want bool
	}{
		{MMScanSpec, false},          // (8,4,1): the gap
		{MMInPlaceSpec, true},        // (8,4,0): c < 1
		{StrassenSpec, false},        // (7,4,1): the gap
		{LCSSpec, false},             // (4,2,1): the gap
		{MustSpec(2, 4, 1), true},    // a < b
		{MustSpec(4, 4, 1), false},   // a = b boundary (merge-sort-like)
		{MustSpec(8, 4, 0.9), true},  // c < 1
		{MustSpec(16, 4, 0.5), true}, // c < 1 even with huge a
	}
	for _, tc := range cases {
		if got := tc.s.Adaptive(); got != tc.want {
			t.Errorf("%v Adaptive = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestValidSizeLevels(t *testing.T) {
	s := MMScanSpec
	if !s.ValidSize(1) || !s.ValidSize(4) || !s.ValidSize(1024) {
		t.Error("powers of 4 rejected")
	}
	if s.ValidSize(0) || s.ValidSize(48) || s.ValidSize(-4) {
		t.Error("non-powers accepted")
	}
	if s.Levels(1) != 0 || s.Levels(64) != 3 {
		t.Error("Levels wrong")
	}
}

func TestLeafCount(t *testing.T) {
	s := MMScanSpec
	// 8^3 leaves for n = 4^3.
	if got := s.LeafCount(64); got != 512 {
		t.Errorf("LeafCount(64) = %g, want 512", got)
	}
	e, err := NewExec(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TotalLeaves(); got != 512 {
		t.Errorf("TotalLeaves() at n=64 = %d, want 512", got)
	}
}

func TestScanLen(t *testing.T) {
	if got := MMScanSpec.ScanLen(64); got != 64 {
		t.Errorf("c=1 scan = %d, want 64", got)
	}
	if got := MMInPlaceSpec.ScanLen(64); got != 1 {
		t.Errorf("c=0 scan = %d, want 1", got)
	}
	if got := MMScanSpec.ScanLen(1); got != 0 {
		t.Errorf("base case scan = %d, want 0", got)
	}
	half := MustSpec(8, 4, 0.5)
	if got := half.ScanLen(64); got != 8 {
		t.Errorf("c=0.5 scan of 64 = %d, want 8", got)
	}
}

// TestScanLensMatchScanLen: the per-level table the executor and the
// generators read equals ScanLen at every level, for the scan exponents
// A3 sweeps, up to the largest power of b an int64 holds, and is zero at
// the base case and past the problem's levels.
func TestScanLensMatchScanLen(t *testing.T) {
	for _, b := range []int64{2, 4} {
		for _, c := range []float64{0, 0.25, 0.5, 0.75, 1} {
			spec := MustSpec(8, b, c)
			k := 0
			for m := int64(1); m <= math.MaxInt64/b; m *= b {
				k++
			}
			for _, levels := range []int{0, 1, k / 2, k} {
				scan := scanLens(spec, levels)
				m := int64(1)
				for l := 0; l < maxLevels; l++ {
					want := int64(0)
					if l <= levels {
						want = spec.ScanLen(m)
					}
					if scan[l] != want {
						t.Fatalf("b=%d c=%v levels=%d: scan[%d] = %d, want %d", b, c, levels, l, scan[l], want)
					}
					if l < levels {
						m *= b
					}
				}
			}
		}
	}
}

func TestIOCost(t *testing.T) {
	// T(1)=1; T(4) = 8·1 + 4 = 12; T(16) = 8·12 + 16 = 112.
	s := MMScanSpec
	if got := s.IOCost(1); got != 1 {
		t.Errorf("T(1) = %g", got)
	}
	if got := s.IOCost(4); got != 12 {
		t.Errorf("T(4) = %g, want 12", got)
	}
	if got := s.IOCost(16); got != 112 {
		t.Errorf("T(16) = %g, want 112", got)
	}
}

func TestFloorPow(t *testing.T) {
	s := MMScanSpec // b = 4
	cases := []struct{ x, want int64 }{
		{1, 1}, {2, 1}, {3, 1}, {4, 4}, {5, 4}, {15, 4}, {16, 16}, {100, 64},
		{0, 1}, {-7, 1},
	}
	for _, tc := range cases {
		if got := s.FloorPow(tc.x); got != tc.want {
			t.Errorf("FloorPow(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestPotential(t *testing.T) {
	s := MMScanSpec
	if got := s.Potential(16); math.Abs(got-64) > 1e-9 {
		t.Errorf("ρ(16) = %g, want 64", got)
	}
	if got := s.BoundedPotential(256, 16); math.Abs(got-64) > 1e-9 {
		t.Errorf("bounded ρ(256; n=16) = %g, want 64", got)
	}
	if got := s.BoundedPotential(4, 16); math.Abs(got-8) > 1e-9 {
		t.Errorf("bounded ρ(4; n=16) = %g, want 8", got)
	}
}

// TestPotentialsMatchBoundedPotentialBits pins the per-run potential table
// to BoundedPotential bit for bit, for every spec the experiments run:
// every box size up to 4n (so sizes above n clamp), huge sizes, and a run
// of sizes that all land in one table slot, so each evicts the last.
func TestPotentialsMatchBoundedPotentialBits(t *testing.T) {
	specs := []Spec{MMScanSpec, MMInPlaceSpec, StrassenSpec, LCSSpec,
		MustSpec(2, 2, 1), MustSpec(2, 4, 1), MustSpec(4, 4, 1)}
	for _, c := range []float64{0.25, 0.5, 0.75} {
		specs = append(specs, MustSpec(8, 4, c))
	}
	var colliding []int64
	for box := int64(1); len(colliding) < 8; box++ {
		if potentialSlot(box) == potentialSlot(1) {
			colliding = append(colliding, box)
		}
	}
	for _, s := range specs {
		for _, n := range []int64{1, 16, 64, 1 << 12} {
			p := s.Potentials(n)
			check := func(box int64) {
				t.Helper()
				if got, want := p.Of(box), s.BoundedPotential(box, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v n=%d box=%d: table %v, BoundedPotential %v", s, n, box, got, want)
				}
			}
			for box := int64(1); box <= 4*n; box++ {
				check(box)
			}
			for _, box := range []int64{n + 1, 1 << 40, math.MaxInt64} {
				check(box)
			}
			for round := 0; round < 3; round++ {
				for _, box := range colliding {
					check(box)
				}
			}
		}
	}
}
