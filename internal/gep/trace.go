package gep

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Traced GEP variants, mirroring internal/matrix's MM pair.
//
// Layout: the distance matrix lives in block-recursive (Morton) order at
// word offset 0, so every d×d octant is ⌈d²/B⌉ contiguous blocks. The
// in-place recursion touches only the three octants per call — (8,4,0) in
// blocks. The not-in-place variant additionally materialises its U and V
// operands into stack-allocated temporaries before recursing (the copying
// formulation of GEP), adding a Θ(d²/B) scan per call — (8,4,1) in blocks,
// which is where the paper's Theorem 2 puts it in the gap.

type gepTraceGen struct {
	s          trace.Sink
	blockWords int64
	allocTop   int64
}

func (g *gepTraceGen) touch(off, words int64) {
	first := off / g.blockWords
	last := (off + words - 1) / g.blockWords
	g.s.AccessRange(first, last-first+1)
}

func validateGEPTraceArgs(dim int, blockWords int64) error {
	if dim < 1 || dim&(dim-1) != 0 {
		return fmt.Errorf("gep: traced recursion needs power-of-two dimension, got %d", dim)
	}
	if dim < gepBaseDim {
		return fmt.Errorf("gep: traced recursion needs dimension >= %d, got %d", gepBaseDim, dim)
	}
	if blockWords < 1 {
		return fmt.Errorf("gep: block size %d < 1", blockWords)
	}
	return nil
}

// octant returns the Morton word offset of octant (qi,qj) of the d×d
// region at off.
func octant(off, d, qi, qj int64) int64 {
	h := d / 2
	return off + (2*qi+qj)*h*h
}

// EmitFWInPlace streams into s the block trace of the in-place I-GEP
// Floyd–Warshall on a dim-vertex graph, in the layout described at the
// top of this file.
func EmitFWInPlace(dim int, blockWords int64, s trace.Sink) error {
	if err := validateGEPTraceArgs(dim, blockWords); err != nil {
		return err
	}
	g := &gepTraceGen{s: s, blockWords: blockWords}
	g.inPlace(0, 0, 0, int64(dim))
	return nil
}

func (g *gepTraceGen) leafCase(xOff, uOff, vOff, d int64) {
	g.touch(uOff, d*d)
	g.touch(vOff, d*d)
	g.touch(xOff, d*d)
	g.s.EndLeaf()
}

// inPlace mirrors fwRec's 8-call schedule.
func (g *gepTraceGen) inPlace(xOff, uOff, vOff, d int64) {
	if d <= gepBaseDim {
		g.leafCase(xOff, uOff, vOff, d)
		return
	}
	for _, c := range gepSchedule(xOff, uOff, vOff, d) {
		g.inPlace(c.x, c.u, c.v, d/2)
	}
}

// gepSchedule returns the 8 octant calls of fwRec in order. An array, not
// a slice: it stays on the stack, so re-emitting a trace allocates nothing
// per internal node.
func gepSchedule(xOff, uOff, vOff, d int64) [8]struct{ x, u, v int64 } {
	o := func(off, qi, qj int64) int64 { return octant(off, d, qi, qj) }
	return [8]struct{ x, u, v int64 }{
		{o(xOff, 0, 0), o(uOff, 0, 0), o(vOff, 0, 0)},
		{o(xOff, 0, 1), o(uOff, 0, 0), o(vOff, 0, 1)},
		{o(xOff, 1, 0), o(uOff, 1, 0), o(vOff, 0, 0)},
		{o(xOff, 1, 1), o(uOff, 1, 0), o(vOff, 0, 1)},
		{o(xOff, 1, 1), o(uOff, 1, 1), o(vOff, 1, 1)},
		{o(xOff, 1, 0), o(uOff, 1, 1), o(vOff, 1, 0)},
		{o(xOff, 0, 1), o(uOff, 0, 1), o(vOff, 1, 1)},
		{o(xOff, 0, 0), o(uOff, 0, 1), o(vOff, 1, 0)},
	}
}

// EmitFWScan streams into s the block trace of the copying (not-in-place)
// GEP: before the recursive calls of each level, the U and V operands are
// copied into stack-allocated temporaries (read source, write temp — the
// Θ(d²/B) scan), and the recursion consumes the copies. This is the
// (8,4,1)-regular formulation.
func EmitFWScan(dim int, blockWords int64, s trace.Sink) error {
	if err := validateGEPTraceArgs(dim, blockWords); err != nil {
		return err
	}
	d := int64(dim)
	g := &gepTraceGen{s: s, blockWords: blockWords, allocTop: d * d}
	g.scan(0, 0, 0, d)
	return nil
}

func (g *gepTraceGen) scan(xOff, uOff, vOff, d int64) {
	if d <= gepBaseDim {
		g.leafCase(xOff, uOff, vOff, d)
		return
	}
	// Copy U and V into temporaries: the level's linear scan.
	uCopy := g.allocTop
	vCopy := uCopy + d*d
	g.allocTop = vCopy + d*d
	g.touch(uOff, d*d)
	g.touch(uCopy, d*d)
	g.touch(vOff, d*d)
	g.touch(vCopy, d*d)

	for _, c := range gepSchedule(xOff, uCopy, vCopy, d) {
		// X octants stay in the original matrix; U/V come from the copies.
		g.scan(c.x, c.u, c.v, d/2)
	}
	g.allocTop = uCopy
}

// WorstCaseProfile builds the Figure-1-style adversarial profile matched
// to EmitFWScan: recursively, one box the size of the level's copy scan
// (4·d²/B blocks: read U, write U', read V, write V') placed *before*
// eight copies of the profile for d/2 (the scan is upfront here), with the
// base case getting a box of the base kernel's footprint.
func WorstCaseProfile(dim int, blockWords int64) (*profile.SquareProfile, error) {
	if err := validateGEPTraceArgs(dim, blockWords); err != nil {
		return nil, err
	}
	var boxes []int64
	var build func(d int64)
	build = func(d int64) {
		if d <= gepBaseDim {
			boxes = append(boxes, 3*((d*d+blockWords-1)/blockWords))
			return
		}
		boxes = append(boxes, 4*d*d/blockWords)
		for i := 0; i < 8; i++ {
			build(d / 2)
		}
	}
	build(int64(dim))
	return profile.New(boxes)
}
