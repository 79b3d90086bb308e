package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d too far from expected %.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += s.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := s.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	s := New(17)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		p := s.Perm(n)
		counts[p[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("perm[0]=%d count %d far from %.0f", v, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(19)
	const p, trials = 0.25, 100000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / trials
	want := (1 - p) / p // mean of failures-before-success
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %.3f, want ~%.3f", mean, want)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(23)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f not ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f not ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(29)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += s.Exp()
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean %.4f not ~1", mean)
	}
}

// Exp returns an exponentially distributed sample with rate 1.
func (s *Source) Exp() float64 {
	u := s.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u)
}

// Norm returns a standard normal sample (Box–Muller; one value per call,
// deliberately simple over fast).
func (s *Source) Norm() float64 {
	u1 := s.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Geometric returns a sample from the geometric distribution with success
// probability p in (0, 1]: the number of failures before the first success
// (support {0, 1, 2, ...}).
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	// Avoid log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}
