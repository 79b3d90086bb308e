// Package smoothing implements the paper's four profile smoothings.
//
// The paper's main positive result (Theorem 1/3): drawing every box size
// i.i.d. from an arbitrary distribution Σ makes every (a,b,1)-regular
// algorithm with a > b cache-adaptive in expectation. Its negative results:
// three natural-looking weaker smoothings of the canonical worst-case
// profile M_{a,b}(n) — per-box size perturbation, random start time, and
// box-order perturbation — fail to close the logarithmic gap.
//
// The operators here produce profiles/sources; measurement lives in
// internal/adaptivity. Shuffle, size perturbation and rotation each come
// in two forms: an eager one that builds the whole smoothed profile, and a
// box source (ShuffledSource, PerturbedSource, RotatedSource) that reads
// the shared, read-only original in place and yields the same boxes, doing
// only the work for the boxes a run consumes. The Monte-Carlo runners use
// the sources; the eager forms are their specification.
package smoothing

import (
	"fmt"
	"sort"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// ---------------------------------------------------------------------------
// S1 — i.i.d. box sizes (the smoothing that works).

// IIDSource yields boxes drawn i.i.d. from dist using rng — Theorem 1's
// profile distribution.
func IIDSource(dist xrand.Dist, rng *xrand.Source) profile.Source {
	return profile.FuncSource(func() int64 { return dist.Sample(rng) })
}

// Shuffle returns a uniformly random permutation of p's boxes — the literal
// "random shuffle on when significant events occur" reading. Sampling
// i.i.d. from the profile's empirical box-size distribution (see
// xrand.WorstCaseBoxDist) is the scalable equivalent.
func Shuffle(p *profile.SquareProfile, rng *xrand.Source) *profile.SquareProfile {
	boxes := p.Boxes()
	rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	return profile.MustNew(boxes)
}

// ShuffleTo writes a shuffled copy of p's boxes into buf (grown if needed)
// and returns the shuffled slice. It draws the same permutation as Shuffle
// for the same rng state but allocates nothing once buf has capacity — the
// form the parallel engine uses with per-worker scratch buffers.
func ShuffleTo(buf []int64, p *profile.SquareProfile, rng *xrand.Source) []int64 {
	buf = p.AppendBoxes(buf[:0])
	rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
	return buf
}

// ShuffleIndex is a profile recoded as one byte per box: box i's size is
// sizes[index[i]]. Built once per profile and shared read-only by every
// ShuffledSource, it lets a trial shuffle bytes instead of int64s, so the
// shuffle's random accesses touch an eighth of the memory.
type ShuffleIndex struct {
	sizes []int64 // the distinct sizes, in order of first appearance
	index []byte
}

// NewShuffleIndex recodes p's boxes. It fails if p is empty or has more
// than 256 distinct box sizes, which a byte cannot index; M_{a,b}(n) has
// log_b n + 1 <= 64.
func NewShuffleIndex(p *profile.SquareProfile) (*ShuffleIndex, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot shuffle an empty profile")
	}
	x := &ShuffleIndex{index: make([]byte, p.Len())}
	code := make(map[int64]byte)
	for i := range x.index {
		b := p.Box(i)
		c, ok := code[b]
		if !ok {
			if len(x.sizes) == 256 {
				return nil, fmt.Errorf("smoothing: profile has more than 256 distinct box sizes; the in-place shuffle indexes sizes by byte")
			}
			c = byte(len(x.sizes))
			code[b] = c
			x.sizes = append(x.sizes, b)
		}
		x.index[i] = c
	}
	return x, nil
}

// ShuffledSource cycles over a random permutation of a profile's boxes: the
// permutation ShuffleTo draws for the same rng state. A permutation drawn
// by Fisher–Yates depends only on the positions swapped, never on the
// values, so shuffling the byte index with ShuffleTo's swap order and
// Intn draws yields ShuffleTo's box sequence. The zero value is ready for
// Reset, which reuses the source's byte buffer across trials.
type ShuffledSource struct {
	sizes []int64
	perm  []byte
	pos   int
}

// Reset shuffles x's boxes with rng and rewinds the source to the first
// box. It draws exactly what ShuffleTo draws.
func (s *ShuffledSource) Reset(x *ShuffleIndex, rng *xrand.Source) {
	s.sizes = x.sizes
	s.perm = append(s.perm[:0], x.index...)
	perm := s.perm
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	s.pos = 0
}

// Next returns the next shuffled box, cycling back to the first after the
// last.
//
//lint:hotpath
func (s *ShuffledSource) Next() int64 {
	b := s.sizes[s.perm[s.pos]]
	s.pos++
	if s.pos == len(s.perm) {
		s.pos = 0
	}
	return b
}

// ---------------------------------------------------------------------------
// S2 — box-size perturbation (fails to smooth).
//
// The paper: draw X_i i.i.d. from a distribution P over [0,t] with
// E[X] = Θ(t) and t <= √n, and replace each box |□_i| by |□_i|·X_i. We use
// the discrete uniform on {1, ..., t} (mean (t+1)/2 = Θ(t); the zero value
// is clamped away since a zero-size box is degenerate in a square profile).

// PerturbSizes multiplies each box size by an independent uniform factor in
// {1, ..., t}.
func PerturbSizes(p *profile.SquareProfile, rng *xrand.Source, t int64) (*profile.SquareProfile, error) {
	if t < 1 {
		return nil, fmt.Errorf("smoothing: perturbation bound t = %d < 1", t)
	}
	boxes := p.Boxes()
	for i := range boxes {
		boxes[i] *= 1 + rng.Int63n(t)
	}
	return profile.New(boxes)
}

// PerturbedSource cycles over p's boxes, each multiplied by an independent
// uniform factor in {1, ..., t}: the boxes PerturbSizes builds for the same
// rng state, drawn only as the run reads them. Box i's factor is drawn
// when box i is first read, and boxes are read in index order, so the
// draws come in PerturbSizes's order. A cycle past the last box rewinds a
// copy of the generator to its state at Reset and draws the same factors
// again. The source draws from its own copy of rng; rng is not advanced.
type PerturbedSource struct {
	p          *profile.SquareProfile
	t          int64
	rng, start xrand.Source
	pos        int
}

// Reset points the source at p with bound t and generator state rng, and
// rewinds it to the first box. p is read in place and must not change
// while the source is in use.
func (s *PerturbedSource) Reset(p *profile.SquareProfile, rng *xrand.Source, t int64) error {
	if t < 1 {
		return fmt.Errorf("smoothing: perturbation bound t = %d < 1", t)
	}
	if p.Len() == 0 {
		return fmt.Errorf("smoothing: cannot perturb an empty profile")
	}
	s.p, s.t, s.rng, s.start, s.pos = p, t, *rng, *rng, 0
	return nil
}

// Next returns the next perturbed box.
//
//lint:hotpath
func (s *PerturbedSource) Next() int64 {
	b := s.p.Box(s.pos) * (1 + s.rng.Int63n(s.t))
	s.pos++
	if s.pos == s.p.Len() {
		s.pos = 0
		s.rng = s.start
	}
	return b
}

// ---------------------------------------------------------------------------
// S3 — start-time perturbation (fails to smooth).

// Rotate cyclically rotates p's boxes so the profile starts at box index
// start (the algorithm begins at that box's start). Index granularity is
// box boundaries — exactly the granularity at which the paper's prefix A /
// suffix B argument operates.
func Rotate(p *profile.SquareProfile, start int) (*profile.SquareProfile, error) {
	n := p.Len()
	if n == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("smoothing: rotation start %d out of [0,%d)", start, n)
	}
	boxes := p.Boxes()
	rotated := make([]int64, 0, n)
	rotated = append(rotated, boxes[start:]...)
	rotated = append(rotated, boxes[:start]...)
	return profile.New(rotated)
}

// RandomRotation rotates p to a start box chosen with probability
// proportional to box duration — i.e. a uniformly random start *time*,
// rounded down to the enclosing box boundary.
func RandomRotation(p *profile.SquareProfile, rng *xrand.Source) (*profile.SquareProfile, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	target := rng.Int63n(p.Duration())
	var acc int64
	for i := 0; i < p.Len(); i++ {
		acc += p.Box(i)
		if target < acc {
			return Rotate(p, i)
		}
	}
	return Rotate(p, p.Len()-1) // unreachable; duration accounting covers all
}

// RotationIndex holds a profile's running durations, built once per
// profile and shared read-only by every RotatedSource, so a trial finds its
// start box by binary search instead of summing the profile.
type RotationIndex struct {
	p   *profile.SquareProfile
	end []int64 // end[i] = Box(0) + ... + Box(i), the time box i ends
}

// NewRotationIndex indexes p, which is read in place and must not change
// while the index is in use.
func NewRotationIndex(p *profile.SquareProfile) (*RotationIndex, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	x := &RotationIndex{p: p, end: make([]int64, p.Len())}
	var acc int64
	for i := range x.end {
		acc += p.Box(i)
		x.end[i] = acc
	}
	return x, nil
}

// RotatedSource cycles over a profile from a start box chosen as
// RandomRotation chooses it, reading the profile in place: the boxes
// RandomRotation builds for the same rng state. The zero value is ready
// for Reset.
type RotatedSource struct {
	p   *profile.SquareProfile
	pos int
}

// Reset draws a start time uniform over x's duration with rng, exactly as
// RandomRotation does, and positions the source at the box covering it.
func (s *RotatedSource) Reset(x *RotationIndex, rng *xrand.Source) {
	target := rng.Int63n(x.end[len(x.end)-1])
	s.p = x.p
	s.pos = sort.Search(len(x.end), func(i int) bool { return target < x.end[i] })
}

// Next returns the next box of the rotation, cycling through the profile.
//
//lint:hotpath
func (s *RotatedSource) Next() int64 {
	b := s.p.Box(s.pos)
	s.pos++
	if s.pos == s.p.Len() {
		s.pos = 0
	}
	return b
}

// ---------------------------------------------------------------------------
// S4 — box-order perturbation (fails to smooth).

// OrderPerturbed builds the recursive worst-case profile with the level-n
// box placed after a uniformly random one of the a recursive instances
// (independently at every node), instead of always after the last:
//
//	M'(n) = M'_1(n/b) ... M'_j(n/b)  [box n]  M'_{j+1}(n/b) ... M'_a(n/b)
//
// with j uniform on {1, ..., a}. The paper proves the result remains a
// worst-case profile with probability one: the algorithm must still grind
// through every box preceding the big one, and at least one full recursive
// instance always precedes it.
func OrderPerturbed(a, b, n int64, rng *xrand.Source) (*profile.SquareProfile, error) {
	count, err := profile.WorstCaseBoxCount(a, b, n)
	if err != nil {
		return nil, err
	}
	const maxBoxes = int64(1) << 31
	if count > maxBoxes {
		return nil, fmt.Errorf("smoothing: order-perturbed M_{%d,%d}(%d) would have %d boxes", a, b, n, count)
	}
	boxes := make([]int64, 0, count)
	boxes = appendOrderPerturbed(boxes, a, b, n, rng)
	return profile.New(boxes)
}

func appendOrderPerturbed(dst []int64, a, b, n int64, rng *xrand.Source) []int64 {
	if n <= 1 {
		return append(dst, 1)
	}
	j := 1 + rng.Int63n(a) // big box goes after instance j
	for i := int64(1); i <= a; i++ {
		dst = appendOrderPerturbed(dst, a, b, n/b, rng)
		if i == j {
			dst = append(dst, n)
		}
	}
	return dst
}
