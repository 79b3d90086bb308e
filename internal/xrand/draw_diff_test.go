package xrand

import (
	"math"
	"sort"
	"testing"
)

// The draw primitives take shortcuts that must not move a single draw:
// boundedUint64 skips the rejection threshold for draws v >= n, and
// Weighted.Sample scans linearly where it used to binary-search. These
// tests pin both against test-local copies of the forms they replaced.

// boundedUint64Reference is boundedUint64 before the v >= n shortcut: it
// computes the rejection threshold on every call.
func boundedUint64Reference(s *Source, n uint64) uint64 {
	t := (-n) % n
	for {
		v := s.Uint64()
		if v >= t {
			return v % n
		}
	}
}

func TestBoundedUint64MatchesReference(t *testing.T) {
	bounds := []uint64{1, 2, 3, 7, 1000, 1<<63 - 1, 1 << 63, math.MaxUint64,
		// n ≈ 2^64/3: t = 2^64 mod n = 2^64 - 2n, about n itself, so about
		// a third of all draws are rejected and the rejection branch is
		// certain to run.
		math.MaxUint64/3 + 1, math.MaxUint64/3 + 2, math.MaxUint64 / 3,
		// n just above 2^63: t = 2^64 - n, so almost half are rejected.
		1<<63 + 1}
	for p := 0; p < 64; p++ {
		bounds = append(bounds, uint64(1)<<p)
	}
	for _, n := range bounds {
		for seed := uint64(0); seed < 4; seed++ {
			got, want := New(seed), New(seed)
			for i := 0; i < 2000; i++ {
				g, w := got.boundedUint64(n), boundedUint64Reference(want, n)
				if g != w {
					t.Fatalf("n=%d seed=%d draw %d: got %d, want %d", n, seed, i, g, w)
				}
				if g >= n {
					t.Fatalf("n=%d: draw %d out of range", n, g)
				}
			}
			if got.state != want.state {
				t.Fatalf("n=%d seed=%d: generator states diverged: %d vs %d", n, seed, got.state, want.state)
			}
		}
	}
}

// searchReference is Weighted.Sample's index before the linear scan.
func searchReference(w *Weighted, u float64) int {
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.values) {
		i = len(w.values) - 1
	}
	return i
}

func weightedFixtures(t *testing.T) []*Weighted {
	t.Helper()
	var ws []*Weighted
	for _, n := range []int64{1, 4, 1 << 14, 1 << 30} {
		w, err := WorstCaseBoxDist(8, 4, n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	w, err := WorstCaseBoxDist(2, 2, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, w)
	for _, pairs := range [][2][]float64{
		{{1}, {1}},
		{{2, 8, 32}, {6, 3, 1}},
		{{1, 2, 3, 4}, {1e-12, 1, 1e-12, 5}},
		{{5, 7}, {1, 1e9}},
	} {
		vals := make([]int64, len(pairs[0]))
		for i, v := range pairs[0] {
			vals[i] = int64(v)
		}
		w, err := NewWeighted("fixture", vals, pairs[1])
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestWeightedSearchMatchesBinarySearch(t *testing.T) {
	for _, w := range weightedFixtures(t) {
		us := []float64{0, math.SmallestNonzeroFloat64, 1 - 0x1p-53, math.Nextafter(1, 0)}
		for _, c := range w.cum {
			// The top of every cumulative step, and either side of it.
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		rng := New(21)
		for i := 0; i < 5000; i++ {
			us = append(us, rng.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue // Float64 never returns these
			}
			if got, want := w.search(u), searchReference(w, u); got != want {
				t.Fatalf("%s: u=%v: index %d, want %d", w.Name(), u, got, want)
			}
		}
		// And end to end through Sample over one seeded stream.
		got, want := New(33), New(33)
		for i := 0; i < 5000; i++ {
			if g, wv := w.Sample(got), w.values[searchReference(w, want.Float64())]; g != wv {
				t.Fatalf("%s: draw %d: %d, want %d", w.Name(), i, g, wv)
			}
		}
	}
}

// allocguard:Source.boundedUint64
// allocguard:Weighted.Sample
func TestDrawsZeroAlloc(t *testing.T) {
	w, err := WorstCaseBoxDist(8, 4, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	src := New(5)
	var sink uint64
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			sink += src.boundedUint64(uint64(i + 1))
			sink += uint64(w.Sample(src))
		}
	}); avg != 0 {
		t.Fatalf("bounded and weighted draws allocate %.1f times per run, want 0", avg)
	}
	_ = sink
}
