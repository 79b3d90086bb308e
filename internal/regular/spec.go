// Package regular implements the (a,b,c)-regular algorithm framework of
// Definition 2 and the paper's Section-4 simplified execution model.
//
// An (a,b,c)-regular algorithm on a problem of size n blocks recurses on
// exactly a subproblems of size n/b until the Θ(1)-block base case, and the
// only other work in a non-base-case subproblem is a linear scan of size
// N^c/B (here, with the paper's B = 1 convention, n^c block accesses). Its
// I/O complexity satisfies T(n) = a·T(n/b) + Θ(1 + n^c).
//
// The package's centrepiece is Exec, a symbolic executor that runs the
// canonical (a,b,c)-regular algorithm against a stream of memory-profile
// boxes under the simplified caching model the paper proves is w.l.o.g.:
//
//   - a box of size s that begins at the start of a subproblem (and hence of
//     all of that subproblem's leftmost descendants) completes exactly the
//     enclosing/descendant problem of size min(s↓, n) on the current chain,
//     where s↓ is s rounded down to a power of b, and goes no further;
//   - a box of size s that begins inside the scan of a problem of size
//     greater than s advances min(s, remaining scan) accesses;
//   - a box of size s that begins inside the scan of a problem of size
//     m <= s completes the ancestor problem of size min(s↓, n).
//
// Progress of a box is the number of base cases (recursion leaves) it
// completes; scan-only boxes make zero progress, which is exactly how the
// worst-case profile M_{a,b} wastes potential.
package regular

import (
	"fmt"
	"math"
)

// Spec identifies an (a,b,c)-regular algorithm by its recurrence constants.
type Spec struct {
	A int64   // number of subproblems per level (a >= 1)
	B int64   // problem-size shrink factor (b >= 2)
	C float64 // scan exponent, in [0, 1]
}

// NewSpec validates the constants of Definition 2.
func NewSpec(a, b int64, c float64) (Spec, error) {
	if b < 2 {
		return Spec{}, fmt.Errorf("regular: b = %d must be >= 2", b)
	}
	if a < 1 {
		return Spec{}, fmt.Errorf("regular: a = %d must be >= 1", a)
	}
	if c < 0 || c > 1 {
		return Spec{}, fmt.Errorf("regular: c = %g must lie in [0,1]", c)
	}
	return Spec{A: a, B: b, C: c}, nil
}

// MustSpec is NewSpec for statically known-good constants; it panics on
// error.
func MustSpec(a, b int64, c float64) Spec {
	s, err := NewSpec(a, b, c)
	if err != nil {
		panic(err)
	}
	return s
}

// Exponent returns log_b a, the exponent governing both the leaf count
// n^{log_b a} and the box potential ρ(|□|) = Θ(|□|^{log_b a}) (Lemma 1).
func (s Spec) Exponent() float64 {
	return math.Log(float64(s.A)) / math.Log(float64(s.B))
}

// Adaptive reports whether the algorithm is worst-case cache-adaptive by
// Theorem 2's rule: optimal (a,b,c)-regular algorithms are adaptive iff
// c < 1 or a < b; with c = 1 and a >= b they are Θ(log_b n) from optimal.
func (s Spec) Adaptive() bool {
	return s.C < 1 || s.A < s.B
}

// ValidSize reports whether n is a legal problem size for the symbolic
// executor (a positive power of b, or 1).
func (s Spec) ValidSize(n int64) bool {
	if n < 1 {
		return false
	}
	for n%s.B == 0 {
		n /= s.B
	}
	return n == 1
}

// Levels returns log_b n for a valid size n.
func (s Spec) Levels(n int64) int {
	k := 0
	for n > 1 {
		n /= s.B
		k++
	}
	return k
}

// LeafCount returns the exact number of base cases in a problem of size n
// (a^{log_b n}), as a float64 to sidestep overflow for large instances; for
// the experiment sizes used here the value is exactly representable.
func (s Spec) LeafCount(n int64) float64 {
	return math.Pow(float64(s.A), float64(s.Levels(n)))
}

// ScanLen returns the length of the scan at the end of a problem of size n:
// ceil(n^c) accesses (n accesses when c = 1, a single access when c = 0).
// Base cases (n = 1) have no scan.
func (s Spec) ScanLen(n int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(math.Ceil(math.Pow(float64(n), s.C)))
}

// scanLens tables the scan lengths of a problem with k levels: scan[ℓ] =
// ScanLen(b^ℓ) for ℓ <= k, 0 at ℓ = 0 and past k. The executor and the
// generators read it per node instead of calling ScanLen, whose math.Pow
// would otherwise run once per internal node.
func scanLens(s Spec, k int) (scan [maxLevels]int64) {
	m := int64(1)
	for l := 1; l <= k; l++ {
		m *= s.B
		scan[l] = s.ScanLen(m)
	}
	return scan
}

// IOCost returns the total number of accesses T(n) of the canonical
// algorithm: T(1) = 1 and T(n) = a·T(n/b) + ScanLen(n).
func (s Spec) IOCost(n int64) float64 {
	if n <= 1 {
		return 1
	}
	return float64(s.A)*s.IOCost(n/s.B) + float64(s.ScanLen(n))
}

// Potential returns ρ(|□|) = |□|^{log_b a} with unit constant (Lemma 1).
// Clamp to the problem size yourself when evaluating Equation 2; see
// BoundedPotential.
func (s Spec) Potential(box int64) float64 {
	return math.Pow(float64(box), s.Exponent())
}

// BoundedPotential returns min(n, |□|)^{log_b a}, the per-box term of the
// efficiency criterion in Equation 2.
func (s Spec) BoundedPotential(box, n int64) float64 {
	if box > n {
		box = n
	}
	return math.Pow(float64(box), s.Exponent())
}

// potentialBits sizes a Potentials table at 64 slots, more than the
// distinct box sizes a profile usually draws.
const (
	potentialBits  = 6
	potentialSlots = 1 << potentialBits
)

// Potentials prices the boxes of one run on a problem of n blocks: Of(box)
// is BoundedPotential(box, n), bit for bit. The exponent is computed once
// and min(n, |□|)^{log_b a} is cached by box size in a direct-mapped
// table, because a run's box sizes repeat and math.Pow is the per-box
// cost. The zero value is not usable; get one from Spec.Potentials.
type Potentials struct {
	n    int64
	e    float64
	size [potentialSlots]int64 // box size cached in each slot; 0 = empty
	pot  [potentialSlots]float64
}

// Potentials returns a per-run potential table for problem size n.
func (s Spec) Potentials(n int64) Potentials {
	return Potentials{n: n, e: s.Exponent()}
}

// potentialSlot maps a box size to its table slot by Fibonacci hashing, so
// that powers of b, which share their low bits, spread over the table.
func potentialSlot(box int64) int {
	return int(uint64(box) * 0x9E3779B97F4A7C15 >> (64 - potentialBits))
}

// Of returns min(n, box)^{log_b a}. It calls math.Pow with the same
// arguments as BoundedPotential, so the result has the same bits.
func (p *Potentials) Of(box int64) float64 {
	if box > p.n {
		box = p.n
	}
	if box < 1 {
		return math.Pow(float64(box), p.e)
	}
	i := potentialSlot(box)
	if p.size[i] != box {
		p.size[i], p.pot[i] = box, math.Pow(float64(box), p.e)
	}
	return p.pot[i]
}

// FloorPow rounds x down to the largest power of b that is <= x (minimum
// 1). The simplified model uses power-of-b box sizes; general sizes are
// rounded down for completion decisions, which only weakens boxes and so
// keeps the efficiency criterion conservative. Exec rounds through its
// per-level power table instead; tests pin that lookup to FloorPow.
func (s Spec) FloorPow(x int64) int64 {
	if x < 1 {
		return 1
	}
	p := int64(1)
	for p <= x/s.B {
		p *= s.B
	}
	return p
}

// String renders the spec the way the paper writes it.
func (s Spec) String() string {
	return fmt.Sprintf("(%d,%d,%g)-regular", s.A, s.B, s.C)
}

// Common specs used throughout the experiments.
var (
	// MMScanSpec is MM-Scan, the canonical non-adaptive algorithm:
	// divide-and-conquer matrix multiplication with a merging scan,
	// T(N) = 8T(N/4) + Θ(N/B).
	MMScanSpec = Spec{A: 8, B: 4, C: 1}
	// MMInPlaceSpec is MM-InPlace, the (8,4,0)-regular variant that adds
	// elementary products into the output immediately and needs no merge
	// scan. It is optimally cache-adaptive.
	MMInPlaceSpec = Spec{A: 8, B: 4, C: 0}
	// StrassenSpec is Strassen's algorithm viewed over problem size in
	// blocks of the input (7 subproblems of one quarter the words),
	// (7,4,1)-regular: a = 7 > b = 4, c = 1 — in the logarithmic gap.
	StrassenSpec = Spec{A: 7, B: 4, C: 1}
	// LCSSpec is the cache-oblivious dynamic-programming recursion for
	// LCS/edit-distance over an n-block problem: 4 quadrant subproblems of
	// half the side... expressed in problem-size blocks it is (4,2,1) with
	// a = 4 > b = 2, c = 1.
	LCSSpec = Spec{A: 4, B: 2, C: 1}
)
