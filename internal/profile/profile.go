// Package profile implements memory profiles for the cache-adaptive (CA)
// model.
//
// A memory profile m(t) gives the size of cache, in blocks, after the t-th
// I/O. Prior work (Bender et al. 2014/2016) shows that for cache-oblivious
// algorithms it suffices — up to constant-factor resource augmentation — to
// consider *square profiles* (Definition 1 of the paper): step functions
// where each step ("box", "square") is exactly as long as it is tall. A box
// of size X keeps memory at X blocks for X I/O steps, and with the
// w.l.o.g. convention that cache is cleared at each box boundary, a box of
// size X serves exactly X distinct blocks.
//
// This package provides:
//
//   - SquareProfile: a finite sequence of boxes with potential accounting;
//   - Source: possibly-infinite box streams (i.i.d. draws, cyclic repeats,
//     the infinite worst-case limit profile M_{a,b});
//   - WorstCase: the adversarial profile M_{a,b}(n) from Section 3 /
//     Figure 1, built recursively as a copies of M_{a,b}(n/b) followed by a
//     single box of size n;
//   - Squarize: the inner-square reduction from an arbitrary profile m(t) to
//     a square profile;
//   - generators for the paper's motivating scenarios (winner-take-all
//     sawtooth, random walk, constant).
package profile

import (
	"fmt"
	"math"
)

// SquareProfile is a finite square memory profile: an ordered sequence of
// boxes, each recorded by its size in blocks. Box i has height Box(i) blocks
// and duration Box(i) I/O steps.
type SquareProfile struct {
	boxes []int64
}

// New validates the box sizes (all must be >= 1) and wraps them in a
// SquareProfile. The slice is copied; the caller keeps ownership of boxes.
func New(boxes []int64) (*SquareProfile, error) {
	for i, b := range boxes {
		if b < 1 {
			return nil, fmt.Errorf("profile: box %d has non-positive size %d", i, b)
		}
	}
	cp := make([]int64, len(boxes))
	copy(cp, boxes)
	return &SquareProfile{boxes: cp}, nil
}

// MustNew is New for statically known-good inputs; it panics on error and is
// intended for tests and examples.
func MustNew(boxes []int64) *SquareProfile {
	p, err := New(boxes)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of boxes.
func (p *SquareProfile) Len() int { return len(p.boxes) }

// Box returns the size of the i-th box (0-indexed).
func (p *SquareProfile) Box(i int) int64 { return p.boxes[i] }

// Boxes returns a copy of the box sizes.
func (p *SquareProfile) Boxes() []int64 {
	cp := make([]int64, len(p.boxes))
	copy(cp, p.boxes)
	return cp
}

// AppendBoxes appends the profile's box sizes to dst and returns the
// extended slice — the reusable-buffer alternative to Boxes.
func (p *SquareProfile) AppendBoxes(dst []int64) []int64 {
	return append(dst, p.boxes...)
}

// Duration returns the total number of I/O steps covered by the profile
// (the sum of box sizes, since each box of size X lasts X steps).
func (p *SquareProfile) Duration() int64 {
	var d int64
	for _, b := range p.boxes {
		d += b
	}
	return d
}

// Potential returns the total potential Σ_i |□_i|^e of the profile, where
// e = log_b a for the algorithm under consideration (Lemma 1: ρ(|□|) =
// Θ(|□|^{log_b a}); we use the clean form |□|^e with constant 1).
func (p *SquareProfile) Potential(e float64) float64 {
	var total float64
	for _, b := range p.boxes {
		total += math.Pow(float64(b), e)
	}
	return total
}

// BoundedPotential returns Σ_i min(n, |□_i|)^e — the left-hand side of the
// efficiency criterion in Equation 2 of the paper. Unlike Potential, it is
// insensitive to the size of an over-large final box.
func (p *SquareProfile) BoundedPotential(n int64, e float64) float64 {
	var total float64
	for _, b := range p.boxes {
		if b > n {
			b = n
		}
		total += math.Pow(float64(b), e)
	}
	return total
}

// Clone returns a deep copy of the profile.
func (p *SquareProfile) Clone() *SquareProfile {
	return &SquareProfile{boxes: p.Boxes()}
}

// MaxBox returns the largest box size (0 for an empty profile).
func (p *SquareProfile) MaxBox() int64 {
	var m int64
	for _, b := range p.boxes {
		if b > m {
			m = b
		}
	}
	return m
}

// SizeHistogram returns a map from box size to multiplicity.
func (p *SquareProfile) SizeHistogram() map[int64]int64 {
	h := make(map[int64]int64)
	for _, b := range p.boxes {
		h[b]++
	}
	return h
}

// String summarises the profile without dumping every box.
func (p *SquareProfile) String() string {
	return fmt.Sprintf("SquareProfile{boxes=%d, duration=%d, max=%d}",
		p.Len(), p.Duration(), p.MaxBox())
}

// ---------------------------------------------------------------------------
// Sources: possibly-infinite streams of boxes.

// Source yields an unbounded stream of box sizes. The CA model defines
// adaptivity over infinite profiles; executors pull boxes until the
// algorithm completes.
type Source interface {
	// Next returns the size (>= 1) of the next box.
	Next() int64
}

// ForkableSource is a Source whose box sequence is re-derivable from any
// offset: ForkAt(box) returns an independent Source positioned as if Next
// had already been called box times on a fresh instance. Forks never share
// mutable state with the receiver or each other, so they may be consumed
// concurrently. paging.SquareEmitParallel forks the profile source at
// each shard's starting box instead of threading one cursor through every
// shard in order. That sharded replay has no production caller (it loses
// to the serial replay on a 2-CPU host); the interface and the ForkAt
// methods of BoxesSource and WorstCaseSource stay only for the benchmark's
// shard-speedup probe.
//
// ForkAt positions relative to the source's initial state, not its current
// cursor; stateless deterministic sequences (a cycled box slice, the
// worst-case limit stream) satisfy that naturally, while genuinely
// stateful sources (FuncSource closures over an RNG) cannot and simply do
// not implement the interface, which routes them to the serial path.
type ForkableSource interface {
	Source
	// ForkAt returns an independent Source positioned after `box` boxes.
	ForkAt(box int64) Source
}

// NewSliceSource returns a Source cycling over p's boxes forever, read in
// place (a SquareProfile is immutable once built). Cycling rather than
// terminating matches the "infinite square-profile" framing: the common
// use is a profile known to be long enough for the run, with the cycle as
// a safety net that keeps the stream total. p must be non-empty.
func NewSliceSource(p *SquareProfile) (*BoxesSource, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("profile: cannot stream an empty profile")
	}
	return &BoxesSource{boxes: p.boxes}, nil
}

// FuncSource adapts a function to the Source interface.
type FuncSource func() int64

// Next calls the underlying function.
func (f FuncSource) Next() int64 { return f() }

// BoxesSource cycles over a box slice without copying it. The caller
// guarantees every size is >= 1 and must not mutate the slice while the
// source is in use.
type BoxesSource struct {
	boxes []int64
	pos   int
}

// NewBoxesSource returns a Source cycling over boxes. boxes must be
// non-empty.
func NewBoxesSource(boxes []int64) (*BoxesSource, error) {
	if len(boxes) == 0 {
		return nil, fmt.Errorf("profile: cannot stream an empty box slice")
	}
	return &BoxesSource{boxes: boxes}, nil
}

// Next returns the next box, cycling back to the start at the end.
func (s *BoxesSource) Next() int64 {
	b := s.boxes[s.pos]
	s.pos++
	if s.pos == len(s.boxes) {
		s.pos = 0
	}
	return b
}

// ForkAt returns an independent source positioned after box boxes of the
// cycled sequence. The slice is shared with the receiver; the usual
// BoxesSource no-mutation contract extends to every fork.
func (s *BoxesSource) ForkAt(box int64) Source {
	if box < 0 {
		box = 0
	}
	return &BoxesSource{boxes: s.boxes, pos: int(box % int64(len(s.boxes)))}
}

var _ ForkableSource = (*BoxesSource)(nil)
