package profile

import (
	"fmt"
	"slices"

	"repro/internal/xrand"
)

// This file contains generators for raw (non-square) memory profiles m(t) —
// the scenarios the paper's introduction motivates — plus the reduction
// from an arbitrary profile to a square profile (Definition 1, following
// the inner-square construction of Bender et al. 2016).
//
// A raw profile is read in order as a Raw stream, so a consumer holds a
// bounded window of it instead of a horizon-length slice. SliceRaw and
// Collect convert between the stream and a materialized []int64.

// Raw is a raw memory profile m(t), the cache size in blocks after each
// I/O, read in order like an io.Reader of sizes.
type Raw interface {
	// Read writes the profile's next sizes into dst and returns how many
	// it wrote. For a non-empty dst, 0 means the profile has ended.
	Read(dst []int64) int
}

// rawWindow is how many steps of a Raw its consumers read at a time.
const rawWindow = 4096

// RawReader steps through a Raw one size at a time, refilling a
// fixed-size window from it as the window drains.
type RawReader struct {
	r   Raw
	win []int64 // the sizes of the last Read; its capacity is the window
	pos int     // the next size's index in win
}

// NewRawReader returns a reader over r.
func NewRawReader(r Raw) *RawReader {
	return &RawReader{r: r, win: make([]int64, 0, rawWindow)}
}

// Next returns the next size; ok is false once the profile has ended.
func (rr *RawReader) Next() (m int64, ok bool) {
	if rr.pos == len(rr.win) {
		rr.win, rr.pos = rr.win[:rr.r.Read(rr.win[:cap(rr.win)])], 0
		if len(rr.win) == 0 {
			return 0, false
		}
	}
	m = rr.win[rr.pos]
	rr.pos++
	return m, true
}

// SliceRaw streams a materialized profile. m is read in place and must not
// change while the stream is in use.
func SliceRaw(m []int64) Raw { return &sliceRaw{m: m} }

type sliceRaw struct{ m []int64 }

func (s *sliceRaw) Read(dst []int64) int {
	n := copy(dst, s.m)
	s.m = s.m[n:]
	return n
}

// Collect reads r to its end and returns the sizes it produced.
func Collect(r Raw) []int64 {
	var out []int64
	for {
		out = slices.Grow(out, rawWindow)
		n := r.Read(out[len(out):cap(out)])
		if n == 0 {
			return out
		}
		out = out[:len(out)+n]
	}
}

// Constant returns a profile fixed at m blocks for length steps.
func Constant(m int64, length int) (Raw, error) {
	if m < 1 {
		return nil, fmt.Errorf("profile: constant size %d < 1", m)
	}
	if length < 0 {
		return nil, fmt.Errorf("profile: negative length %d", length)
	}
	return &constantRaw{m: m, left: length}, nil
}

type constantRaw struct {
	m    int64
	left int
}

func (c *constantRaw) Read(dst []int64) int {
	n := min(len(dst), c.left)
	for i := range dst[:n] {
		dst[i] = c.m
	}
	c.left -= n
	return n
}

// Sawtooth models the winner-take-all phenomenon from the paper's
// introduction: a process's cache allocation slowly grows from minM to maxM
// (as it wins residency) and then crashes back down to minM (a periodic
// flush). The allocation grows linearly over period steps, then drops.
func Sawtooth(minM, maxM int64, period, length int) (Raw, error) {
	if minM < 1 || maxM < minM {
		return nil, fmt.Errorf("profile: sawtooth range [%d,%d] invalid", minM, maxM)
	}
	if period < 1 {
		return nil, fmt.Errorf("profile: sawtooth period %d < 1", period)
	}
	if length < 0 {
		return nil, fmt.Errorf("profile: negative length %d", length)
	}
	return &sawtoothRaw{minM: minM, span: maxM - minM, period: period, length: length}, nil
}

type sawtoothRaw struct {
	minM, span            int64
	period, phase, length int // phase = steps produced mod period
}

func (s *sawtoothRaw) Read(dst []int64) int {
	n := min(len(dst), s.length)
	for i := range dst[:n] {
		dst[i] = s.minM + s.span*int64(s.phase)/int64(s.period)
		if s.phase++; s.phase == s.period {
			s.phase = 0
		}
	}
	s.length -= n
	return n
}

// RandomWalk returns a profile performing a bounded lazy random walk: at
// each step the size stays, grows by up to step, or shrinks by up to step,
// clamped to [minM, maxM]. This mimics cache allocations drifting as
// co-running processes come and go. Note the CA model itself allows growth
// of at most one block per I/O; Squarize absorbs any raw profile either way.
// The walk draws one src.Int63n per step it produces, as that step is
// read.
func RandomWalk(src *xrand.Source, start, minM, maxM, step int64, length int) (Raw, error) {
	if minM < 1 || maxM < minM {
		return nil, fmt.Errorf("profile: walk range [%d,%d] invalid", minM, maxM)
	}
	if start < minM || start > maxM {
		return nil, fmt.Errorf("profile: walk start %d outside [%d,%d]", start, minM, maxM)
	}
	if step < 1 {
		return nil, fmt.Errorf("profile: walk step %d < 1", step)
	}
	if length < 0 {
		return nil, fmt.Errorf("profile: negative length %d", length)
	}
	return &walkRaw{src: src, cur: start, minM: minM, maxM: maxM, step: step, left: length}, nil
}

type walkRaw struct {
	src                   *xrand.Source
	cur, minM, maxM, step int64
	left                  int
}

func (w *walkRaw) Read(dst []int64) int {
	n := min(len(dst), w.left)
	for i := range dst[:n] {
		dst[i] = w.cur
		delta := w.src.Int63n(2*w.step+1) - w.step
		w.cur += delta
		if w.cur < w.minM {
			w.cur = w.minM
		}
		if w.cur > w.maxM {
			w.cur = w.maxM
		}
	}
	w.left -= n
	return n
}

// Squarize converts a materialized memory profile m into a square profile;
// it is SquarizeRaw over SliceRaw(m).
func Squarize(m []int64) (*SquareProfile, error) {
	return SquarizeRaw(SliceRaw(m))
}

// SquarizeRaw converts an arbitrary memory profile m (size in blocks at
// each I/O step; all entries >= 1) into a square profile using the greedy
// inner-square construction: starting at step t, take the largest X such
// that m(t') >= X for all t' in [t, t+X), emit a box of size X, and advance
// by X steps. Prior work shows the inner square profile approximates the
// original up to constant-factor resource augmentation.
//
// The boxes cover exactly the profile's steps: a box never grows past the
// profile's end, so the last one may be shorter than the heights under it
// allow. The covering invariant (sum of box sizes == len(m)) is tested.
//
// The reduction reads m once, in order, one window of rawWindow steps at a
// time. It needs no lookahead: growing the open box takes only its minimum
// height so far and the next step, and the step that stops a box starts
// the next one. An entry < 1 is an error naming its index.
func SquarizeRaw(m Raw) (*SquareProfile, error) {
	win := make([]int64, rawWindow)
	var boxes []int64
	// The open box spans x steps (none while x == 0); minH is their least
	// height.
	var x, minH int64
	var t int64 // index of the step being read
	for n := m.Read(win); n > 0; n = m.Read(win) {
		for _, h := range win[:n] {
			if h < 1 {
				return nil, fmt.Errorf("profile: m(%d) = %d < 1", t, h)
			}
			t++
			// The box grows to x+1 if its x+1 steps all have height >= x+1.
			if x > 0 {
				if hmin := min(minH, h); hmin >= x+1 {
					x, minH = x+1, hmin
					continue
				}
				boxes = append(boxes, x)
			}
			x, minH = 1, h
		}
	}
	if x > 0 {
		boxes = append(boxes, x)
	}
	return &SquareProfile{boxes: boxes}, nil
}
