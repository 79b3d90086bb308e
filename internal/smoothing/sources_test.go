package smoothing

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// The in-place sources must yield exactly the boxes of the eager forms
// they replace in the Monte-Carlo runners, read through a cycling
// BoxesSource as the runners read them: Shuffle/ShuffleTo for
// ShuffledSource, PerturbSizes for PerturbedSource and RandomRotation for
// RotatedSource, each under the same generator state. The comparisons read
// well past the profile's end, so the wrap is covered too.

var perturbBounds = []int64{1, 2, 16}

// handProfile has repeated, unsorted sizes, including ones no worst-case
// profile holds.
func handProfile() *profile.SquareProfile {
	return profile.MustNew([]int64{5, 1, 5, 300, 2, 2, 77, 1, 5, 9, 300, 1})
}

func worstCaseProfile(t testing.TB, k int) *profile.SquareProfile {
	t.Helper()
	wc, err := profile.WorstCase(8, 4, profile.Pow(4, k))
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// cycling wraps eager boxes in the cycling source the runners used.
func cycling(t testing.TB, boxes []int64) profile.Source {
	t.Helper()
	src, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// sameBoxes reads m boxes from both sources and fails at the first
// difference.
func sameBoxes(t testing.TB, what string, got, want profile.Source, m int) {
	t.Helper()
	for i := 0; i < m; i++ {
		if g, w := got.Next(), want.Next(); g != w {
			t.Fatalf("%s: box %d is %d, want %d", what, i, g, w)
		}
	}
}

// checkSourcesMatchEager compares all three sources on p under seed, with
// one source of each kind reused across calls as a worker reuses them.
func checkSourcesMatchEager(t testing.TB, p *profile.SquareProfile, seed uint64, tf int64,
	sh *ShuffledSource, pe *PerturbedSource, ro *RotatedSource) {
	t.Helper()
	m := 3*p.Len() + 7

	shx, err := NewShuffleIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	sh.Reset(shx, xrand.New(seed))
	sameBoxes(t, "shuffle", sh, cycling(t, ShuffleTo(nil, p, xrand.New(seed))), m)

	if err := pe.Reset(p, xrand.New(seed), tf); err != nil {
		t.Fatal(err)
	}
	pp, err := PerturbSizes(p, xrand.New(seed), tf)
	if err != nil {
		t.Fatal(err)
	}
	sameBoxes(t, "perturb", pe, cycling(t, pp.Boxes()), m)

	rox, err := NewRotationIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	ro.Reset(rox, xrand.New(seed))
	rp, err := RandomRotation(p, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sameBoxes(t, "rotate", ro, cycling(t, rp.Boxes()), m)
}

func TestSourcesMatchEager(t *testing.T) {
	var sh ShuffledSource
	var pe PerturbedSource
	var ro RotatedSource
	profiles := []*profile.SquareProfile{handProfile(), profile.MustNew([]int64{3})}
	for k := 0; k <= 5; k++ {
		profiles = append(profiles, worstCaseProfile(t, k))
	}
	for _, p := range profiles {
		seeds := 40
		if p.Len() > 10000 {
			seeds = 3
		}
		for s := 0; s < seeds; s++ {
			for _, tf := range perturbBounds {
				seed := xrand.Split(0x5300, "sources", int64(p.Len()), int64(s), tf)
				checkSourcesMatchEager(t, p, seed, tf, &sh, &pe, &ro)
			}
		}
	}
}

// TestPerturbedSourceLeavesCallerRNG: the source draws from its own copy
// of the generator, so the caller's generator does not move.
func TestPerturbedSourceLeavesCallerRNG(t *testing.T) {
	rng := xrand.New(9)
	var pe PerturbedSource
	if err := pe.Reset(handProfile(), rng, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pe.Next()
	}
	if got, want := rng.Uint64(), xrand.New(9).Uint64(); got != want {
		t.Fatalf("caller's generator advanced: next draw %d, want %d", got, want)
	}
}

func TestShuffleIndexRejectsMoreThan256Sizes(t *testing.T) {
	boxes := make([]int64, 257)
	for i := range boxes {
		boxes[i] = int64(257 - i)
	}
	if _, err := NewShuffleIndex(profile.MustNew(boxes)); err == nil {
		t.Fatal("257 distinct sizes accepted")
	}
	// Exactly 256 distinct sizes, each repeated, fit.
	boxes = append(boxes[1:], boxes[1:]...)
	x, err := NewShuffleIndex(profile.MustNew(boxes))
	if err != nil {
		t.Fatalf("256 distinct sizes rejected: %v", err)
	}
	var sh ShuffledSource
	sh.Reset(x, xrand.New(4))
	sameBoxes(t, "shuffle at 256 sizes", &sh, cycling(t, ShuffleTo(nil, profile.MustNew(boxes), xrand.New(4))), 3*len(boxes))
}

func TestSourcesRejectBadInput(t *testing.T) {
	empty := profile.MustNew(nil)
	if _, err := NewShuffleIndex(empty); err == nil {
		t.Error("shuffle index of an empty profile accepted")
	}
	if _, err := NewRotationIndex(empty); err == nil {
		t.Error("rotation index of an empty profile accepted")
	}
	var pe PerturbedSource
	if err := pe.Reset(empty, xrand.New(1), 2); err == nil {
		t.Error("perturbation of an empty profile accepted")
	}
	if err := pe.Reset(handProfile(), xrand.New(1), 0); err == nil {
		t.Error("perturbation bound t = 0 accepted")
	}
}

// allocguard:ShuffledSource.Next
// allocguard:PerturbedSource.Next
// allocguard:RotatedSource.Next
func TestSourcesZeroAlloc(t *testing.T) {
	p := worstCaseProfile(t, 4)
	shx, err := NewShuffleIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	rox, err := NewRotationIndex(p)
	if err != nil {
		t.Fatal(err)
	}
	var sh ShuffledSource
	var pe PerturbedSource
	var ro RotatedSource
	rng := xrand.New(17)
	sh.Reset(shx, rng) // sizes the shuffle's byte buffer
	var sink int64
	if avg := testing.AllocsPerRun(10, func() {
		sh.Reset(shx, rng)
		if err := pe.Reset(p, rng, 16); err != nil {
			t.Fatal(err)
		}
		ro.Reset(rox, rng)
		for i := 0; i < 2*p.Len(); i++ {
			sink += sh.Next() + pe.Next() + ro.Next()
		}
	}); avg != 0 {
		t.Fatalf("resetting and reading the sources allocates %.1f times per run, want 0", avg)
	}
	_ = sink
}

func FuzzSmoothingSourcesMatchEager(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), []byte(nil))
	f.Add(uint64(20200715), uint8(5), uint8(2), []byte(nil))
	f.Add(uint64(7), uint8(0), uint8(1), []byte{4, 0, 4, 255, 1, 1, 76, 0})
	f.Add(uint64(99), uint8(2), uint8(2), []byte("repeated and unsorted sizes"))
	f.Fuzz(func(t *testing.T, seed uint64, k, tsel uint8, hand []byte) {
		// An empty hand list picks M_{8,4}(4^k), k = 0..5; otherwise each
		// byte is one box, spread out and scrambled so sizes repeat out of
		// order.
		var p *profile.SquareProfile
		if len(hand) == 0 {
			p = worstCaseProfile(t, int(k%6))
		} else {
			if len(hand) > 1024 {
				hand = hand[:1024]
			}
			boxes := make([]int64, len(hand))
			for i, b := range hand {
				boxes[i] = int64(b)*37%256*int64(k%4+1) + 1
			}
			p = profile.MustNew(boxes)
		}
		var sh ShuffledSource
		var pe PerturbedSource
		var ro RotatedSource
		checkSourcesMatchEager(t, p, seed, perturbBounds[int(tsel)%len(perturbBounds)], &sh, &pe, &ro)
	})
}
