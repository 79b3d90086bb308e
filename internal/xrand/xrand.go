// Package xrand provides a small, deterministic, seedable random number
// generator and the handful of distributions the cache-adaptive experiments
// need. Everything in this repository that consumes randomness takes an
// explicit *xrand.Source so that every experiment is reproducible from a
// single uint64 seed.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014): a tiny,
// statistically strong 64-bit generator whose state is a single word. It is
// also used to derive independent child streams (Split), which lets parallel
// trials each own a private generator without locking.
package xrand

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds give independent
// streams for all practical purposes (the output function is a strong
// mixer).
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives a new, statistically independent Source from s, advancing s.
// This is the supported way to hand generators to parallel workers.
func (s *Source) Split() *Source {
	// Mix the child seed through one extra round so that sequential splits
	// do not produce correlated initial states.
	return &Source{state: mix(s.Uint64() ^ 0x9e3779b97f4a7c15)}
}

// Split (the package-level function) derives a deterministic, statistically
// independent seed for the cell named by (id, parts...) under the root
// seed. It is the seeding scheme of the parallel experiment engine: a cell
// identified by, say, ("E3", distribution, k, trial) always receives the
// same seed regardless of how many workers run or in what order cells are
// scheduled, which is what makes parallel output byte-identical to serial.
//
// Unlike (*Source).Split, no generator state is consumed: the derivation is
// a pure function of its arguments.
func Split(seed uint64, id string, parts ...int64) uint64 {
	h := mix(seed ^ 0x243f6a8885a308d3) // 2^62·π — domain-separate from raw seeds
	h = mix(h ^ uint64(len(id)))
	for i := 0; i < len(id); i++ {
		h = mix(h ^ uint64(id[i])*0x100000001b3)
	}
	for _, p := range parts {
		h = mix((h + 0x9e3779b97f4a7c15) ^ uint64(p))
	}
	return h
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand, because a zero range is always a caller bug.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(s.boundedUint64(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n).
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with n <= 0")
	}
	return int64(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) by modulo rejection: a
// draw below t = 2^64 mod n is rejected, since the values [0, t) would
// otherwise map onto [0, n) once more often than the rest. t < n, so any
// draw v >= n is accepted before t is computed, and most draws cost one
// division instead of two; the accepted draws, and so the results, are
// those of the plain v >= t test.
//
//lint:hotpath
func (s *Source) boundedUint64(n uint64) uint64 {
	for {
		v := s.Uint64()
		if v >= n || v >= (-n)%n {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function, in
// math/rand.Shuffle's swap order (i from n-1 down to 1, swapped with a
// uniform j in [0, i]). The j draws are this Source's Intn, not
// math/rand's, so the permutation differs from math/rand's for any seed.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
