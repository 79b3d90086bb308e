package profile

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewValidates(t *testing.T) {
	if _, err := New([]int64{1, 0, 2}); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := New([]int64{1, -3}); err == nil {
		t.Error("negative box accepted")
	}
	if _, err := New(nil); err != nil {
		t.Errorf("empty profile rejected: %v", err)
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []int64{3, 4}
	p, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if p.Box(0) != 3 {
		t.Error("profile aliased caller slice")
	}
	out := p.Boxes()
	out[1] = 77
	if p.Box(1) != 4 {
		t.Error("Boxes leaked internal slice")
	}
}

func TestBasicAccounting(t *testing.T) {
	p := MustNew([]int64{1, 4, 16, 4})
	if p.Len() != 4 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.Duration() != 25 {
		t.Errorf("Duration = %d, want 25", p.Duration())
	}
	if p.MaxBox() != 16 {
		t.Errorf("MaxBox = %d, want 16", p.MaxBox())
	}
	// Potential with e = 1.5: 1 + 8 + 64 + 8 = 81.
	if got := p.Potential(1.5); math.Abs(got-81) > 1e-9 {
		t.Errorf("Potential = %g, want 81", got)
	}
	// Bounded at n = 4: 1 + 8 + 8 + 8 = 25.
	if got := p.BoundedPotential(4, 1.5); math.Abs(got-25) > 1e-9 {
		t.Errorf("BoundedPotential = %g, want 25", got)
	}
	h := p.SizeHistogram()
	if h[4] != 2 || h[1] != 1 || h[16] != 1 {
		t.Errorf("histogram wrong: %v", h)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := MustNew([]int64{2, 3})
	q := p.Clone()
	q.boxes[0] = 9
	if p.Box(0) != 2 {
		t.Error("clone shares storage")
	}
}

func TestSliceSourceCycles(t *testing.T) {
	p := MustNew([]int64{5, 7, 9})
	s, err := NewSliceSource(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 7, 9, 5, 7, 9, 5}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("box %d = %d, want %d", i, got, w)
		}
	}
}

func TestSliceSourceRejectsEmpty(t *testing.T) {
	if _, err := NewSliceSource(MustNew(nil)); err == nil {
		t.Error("empty profile stream accepted")
	}
}

func TestPowLog(t *testing.T) {
	if Pow(4, 0) != 1 || Pow(4, 3) != 64 {
		t.Error("Pow wrong")
	}
	if Log(1, 4) != 0 || Log(64, 4) != 3 {
		t.Error("Log wrong")
	}
	if !IsPowerOf(64, 4) || IsPowerOf(48, 4) || IsPowerOf(0, 4) {
		t.Error("IsPowerOf wrong")
	}
}

func TestWorstCaseSmall(t *testing.T) {
	// M_{2,2}(2) = [M(1), M(1), box 2] = [1, 1, 2].
	p, err := WorstCase(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 2}
	got := p.Boxes()
	if len(got) != len(want) {
		t.Fatalf("boxes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boxes = %v, want %v", got, want)
		}
	}

	// M_{2,2}(4) = [1,1,2, 1,1,2, 4].
	p, err = WorstCase(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want = []int64{1, 1, 2, 1, 1, 2, 4}
	got = p.Boxes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boxes = %v, want %v", got, want)
		}
	}
}

func TestWorstCaseCountAndPotential(t *testing.T) {
	for _, tc := range []struct{ a, b, n int64 }{
		{8, 4, 1}, {8, 4, 4}, {8, 4, 64}, {8, 4, 1024},
		{2, 2, 256}, {4, 2, 64}, {3, 2, 128},
	} {
		p, err := WorstCase(tc.a, tc.b, tc.n)
		if err != nil {
			t.Fatalf("WorstCase(%v): %v", tc, err)
		}
		count, err := WorstCaseBoxCount(tc.a, tc.b, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if int64(p.Len()) != count {
			t.Errorf("M_{%d,%d}(%d): len %d, analytic count %d", tc.a, tc.b, tc.n, p.Len(), count)
		}
		e := math.Log(float64(tc.a)) / math.Log(float64(tc.b))
		wantPot, err := WorstCasePotential(tc.a, tc.b, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Potential(e); math.Abs(got-wantPot) > 1e-6*wantPot {
			t.Errorf("M_{%d,%d}(%d): potential %g, analytic %g", tc.a, tc.b, tc.n, got, wantPot)
		}
	}
}

func TestWorstCaseLogFactor(t *testing.T) {
	// Potential / n^{log_b a} must equal log_b n + 1 exactly — the log gap.
	const a, b = 8, 4
	e := math.Log(8) / math.Log(4) // 1.5
	for k := 0; k <= 6; k++ {
		n := Pow(b, k)
		p, err := WorstCase(a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		ratio := p.Potential(e) / math.Pow(float64(n), e)
		if math.Abs(ratio-float64(k+1)) > 1e-6 {
			t.Errorf("n=4^%d: potential ratio %g, want %d", k, ratio, k+1)
		}
	}
}

func TestWorstCaseValidation(t *testing.T) {
	if _, err := WorstCase(8, 4, 48); err == nil {
		t.Error("non-power n accepted")
	}
	if _, err := WorstCase(8, 1, 4); err == nil {
		t.Error("b=1 accepted")
	}
	if _, err := WorstCase(0, 4, 4); err == nil {
		t.Error("a=0 accepted")
	}
	// Too-large instance must be refused, not OOM.
	if _, err := WorstCase(8, 4, Pow(4, 12)); err == nil {
		t.Error("gigantic instance accepted")
	}
}

func TestWorstCaseSourceMatchesMaterialised(t *testing.T) {
	for _, tc := range []struct{ a, b, n int64 }{
		{8, 4, 256}, {2, 2, 64}, {4, 2, 32},
	} {
		p, err := WorstCase(tc.a, tc.b, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewWorstCaseSource(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.Len(); i++ {
			if got, want := src.Next(), p.Box(i); got != want {
				t.Fatalf("M_{%d,%d}: stream box %d = %d, materialised %d", tc.a, tc.b, i, got, want)
			}
		}
		// The limit profile continues: next box must be a leaf (size 1),
		// since M(n) is a prefix of M(nb) whose next element starts M(n)'s
		// second copy.
		if got := src.Next(); got != 1 {
			t.Errorf("box after M(n) prefix = %d, want 1", got)
		}
	}
}

func TestWorstCaseSourceRejectsA1(t *testing.T) {
	if _, err := NewWorstCaseSource(1, 2); err == nil {
		t.Error("a=1 limit stream accepted")
	}
}

// collected materializes a raw-profile generator's steps.
func collected(r Raw, err error) ([]int64, error) {
	if err != nil {
		return nil, err
	}
	return Collect(r), nil
}

func TestConstant(t *testing.T) {
	m, err := collected(Constant(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Fatalf("constant profile has %d steps, want 5", len(m))
	}
	for _, v := range m {
		if v != 8 {
			t.Fatal("constant profile not constant")
		}
	}
	if _, err := Constant(0, 5); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := Constant(2, -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestSawtoothShape(t *testing.T) {
	m, err := collected(Sawtooth(10, 100, 50, 150))
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 10 {
		t.Errorf("start = %d, want 10", m[0])
	}
	if m[49] <= m[1] {
		t.Error("sawtooth not growing within period")
	}
	if m[50] != 10 {
		t.Errorf("crash at period boundary: m[50] = %d, want 10", m[50])
	}
	for t2, v := range m {
		if v < 10 || v > 100 {
			t.Fatalf("m[%d] = %d outside range", t2, v)
		}
	}
	if _, err := Sawtooth(10, 5, 50, 10); err == nil {
		t.Error("max<min accepted")
	}
	if _, err := Sawtooth(1, 5, 0, 10); err == nil {
		t.Error("period 0 accepted")
	}
}

func TestRandomWalkBounds(t *testing.T) {
	src := xrand.New(5)
	m, err := collected(RandomWalk(src, 50, 10, 100, 7, 10000))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m {
		if v < 10 || v > 100 {
			t.Fatalf("m[%d] = %d escaped bounds", i, v)
		}
	}
	if _, err := RandomWalk(src, 5, 10, 100, 7, 10); err == nil {
		t.Error("start below min accepted")
	}
}

func TestSquarizeConstant(t *testing.T) {
	m, _ := collected(Constant(4, 16))
	p, err := Squarize(m)
	if err != nil {
		t.Fatal(err)
	}
	// Constant 4 for 16 steps → four boxes of size 4.
	if p.Len() != 4 {
		t.Fatalf("boxes = %v", p.Boxes())
	}
	for _, b := range p.Boxes() {
		if b != 4 {
			t.Fatalf("boxes = %v, want all 4s", p.Boxes())
		}
	}
}

func TestSquarizeRejectsNonPositive(t *testing.T) {
	if _, err := Squarize([]int64{3, 0, 3}); err == nil {
		t.Error("m(t)=0 accepted")
	}
}

// Property: Squarize output (1) covers exactly len(m) steps, (2) every box
// fits under the profile: for box starting at t with size X, m(t') >= X for
// all t' in the box, and (3) is maximal in the greedy sense (box could not
// be one larger).
func TestSquarizeInvariants(t *testing.T) {
	src := xrand.New(77)
	check := func(seed uint32, n uint8) bool {
		length := int(n)%200 + 1
		local := xrand.New(uint64(seed))
		m := make([]int64, length)
		for i := range m {
			m[i] = 1 + local.Int63n(40)
		}
		p, err := Squarize(m)
		if err != nil {
			return false
		}
		t0 := 0
		for _, x := range p.Boxes() {
			if t0+int(x) > length {
				return false // overruns
			}
			minH := int64(1 << 62)
			for _, h := range m[t0 : t0+int(x)] {
				if h < minH {
					minH = h
				}
			}
			if minH < x {
				return false // box pokes above profile
			}
			// Greedy maximality: extending to x+1 must be impossible.
			if t0+int(x) < length {
				extMin := minH
				if h := m[t0+int(x)]; h < extMin {
					extMin = h
				}
				if extMin >= x+1 {
					return false // greedy should have grown
				}
			}
			t0 += int(x)
		}
		return t0 == length
	}
	cfg := &quick.Config{MaxCount: 300, Rand: nil}
	_ = src
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSquarizeSawtooth(t *testing.T) {
	m, _ := collected(Sawtooth(4, 256, 300, 1200))
	p, err := Squarize(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() != 1200 {
		t.Errorf("duration %d, want 1200", p.Duration())
	}
	if p.MaxBox() < 32 {
		t.Errorf("expected large inner squares under the ramp, max = %d", p.MaxBox())
	}
}
