package matrix

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file generates block-reference traces for MM-Scan and MM-InPlace.
//
// Layout: matrices use the block-recursive (Morton / bit-interleaved)
// order customary for cache-oblivious matrix code, so every d×d submatrix
// occupies ⌈d²/B⌉ contiguous blocks — the property that lets a quadrant
// recursion exploit whatever cache it is given. A, B and C live at word
// offsets 0, dim², 2·dim²; MM-Scan's temporaries come from a stack
// allocator above them (allocated on entry to a recursive call and
// released on exit, so sibling calls reuse addresses exactly as a real
// implementation's heap would).
//
// Each base-case product marks a leaf completion (the progress unit of the
// cache-adaptive analysis).

// traceGen carries trace-generation state. It emits into any trace.Sink,
// so the same recursion can materialize a Trace (Builder sink) or stream
// straight into a paging kernel in bounded memory.
//
// When the sink implements trace.Stopper the deterministic recursions
// (mulScan, mulInPlace, strassen) abandon emission at subproblem
// granularity once the sink stops consuming; the emitted prefix is
// unchanged, so a stopper-aware sink sees the same stream as a plain one.
// The shuffled variant deliberately never stops early: cutting its
// recursion short would change how much of the caller's RNG stream it
// consumes, and reproducibility of that stream is part of its contract.
type traceGen struct {
	s          trace.Sink
	st         trace.Stopper // optional early-stop surface of s (nil if none)
	blockWords int64         // B: words per block
	allocTop   int64         // stack allocator watermark (in words)
}

// newTraceGen wires a generator to s, capturing its optional Stopper.
func newTraceGen(s trace.Sink, blockWords, allocTop int64) *traceGen {
	st, _ := s.(trace.Stopper)
	return &traceGen{s: s, st: st, blockWords: blockWords, allocTop: allocTop}
}

// touchRegion references every block of the d²-word region at word offset
// off (at least one block).
func (g *traceGen) touchRegion(off, words int64) {
	first := off / g.blockWords
	last := (off + words - 1) / g.blockWords
	g.s.AccessRange(first, last-first+1)
}

// traceBaseDim is the recursion cutoff in the traced algorithms: a base
// case multiplies two traceBaseDim×traceBaseDim quadrants. It is kept at
// the same value as the numeric algorithms' cutoff.
const traceBaseDim = int64(baseDim)

func validateTraceArgs(dim int, blockWords int64) error {
	if dim < 1 || dim&(dim-1) != 0 {
		return fmt.Errorf("matrix: traced multiply needs a power-of-two dimension, got %d", dim)
	}
	if int64(dim) < traceBaseDim {
		return fmt.Errorf("matrix: traced multiply needs dimension >= %d, got %d", traceBaseDim, dim)
	}
	if blockWords < 1 {
		return fmt.Errorf("matrix: block size %d < 1 words", blockWords)
	}
	return nil
}

// TraceMulScan emits the block trace of one MM-Scan multiply of dim×dim
// matrices with blockWords words per block.
func TraceMulScan(dim int, blockWords int64) (*trace.Trace, error) {
	b := &trace.Builder{}
	if err := EmitMulScan(dim, blockWords, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// EmitMulScan streams the MM-Scan trace into s without materializing it.
func EmitMulScan(dim int, blockWords int64, s trace.Sink) error {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return err
	}
	d := int64(dim)
	g := newTraceGen(s, blockWords, 3*d*d)
	g.mulScan(2*d*d, 0, d*d, d)
	return nil
}

func (g *traceGen) leafProduct(cOff, aOff, bOff, d int64) {
	// The base case streams A and B quadrants and writes C: touch each
	// operand's blocks once (they fit in cache for the whole kernel).
	g.touchRegion(aOff, d*d)
	g.touchRegion(bOff, d*d)
	g.touchRegion(cOff, d*d)
	g.s.EndLeaf()
}

func (g *traceGen) mulScan(cOff, aOff, bOff, d int64) {
	if g.st != nil && g.st.Stopped() {
		return
	}
	if d <= traceBaseDim {
		g.leafProduct(cOff, aOff, bOff, d)
		return
	}
	h := d / 2
	q := h * h
	// Stack-allocate the two temporaries (d² words each).
	t1 := g.allocTop
	t2 := t1 + d*d
	g.allocTop = t2 + d*d

	// Quadrant word offsets in recursive layout: quadrant (qi,qj) of the
	// region at off starts at off + (2·qi+qj)·q.
	quad := func(off int64, qi, qj int64) int64 { return off + (2*qi+qj)*q }

	for qi := int64(0); qi < 2; qi++ {
		for qj := int64(0); qj < 2; qj++ {
			g.mulScan(quad(t1, qi, qj), quad(aOff, qi, 0), quad(bOff, 0, qj), h)
			g.mulScan(quad(t2, qi, qj), quad(aOff, qi, 1), quad(bOff, 1, qj), h)
		}
	}
	// The merge scan: read T1 and T2, write C — Θ(d²/B) contiguous block
	// accesses, the Θ(N/B) term of MM-Scan's recurrence.
	g.touchRegion(t1, d*d)
	g.touchRegion(t2, d*d)
	g.touchRegion(cOff, d*d)

	g.allocTop = t1 // release the temporaries
}

// TraceMulScanShuffled emits the block trace of one MM-Scan multiply whose
// eight quadrant products are executed in an independent uniformly random
// order at every node — a randomised divide-and-conquer, used by ablation
// A1 to probe the paper's open question about randomised algorithms. The
// addressing (which temp quadrant each product writes, which input
// quadrants it reads) is unchanged; only the order is random.
func TraceMulScanShuffled(dim int, blockWords int64, rng *xrand.Source) (*trace.Trace, error) {
	b := &trace.Builder{}
	if err := EmitMulScanShuffled(dim, blockWords, rng, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// EmitMulScanShuffled streams the shuffled MM-Scan trace into s.
func EmitMulScanShuffled(dim int, blockWords int64, rng *xrand.Source, s trace.Sink) error {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return err
	}
	d := int64(dim)
	g := &traceGen{s: s, blockWords: blockWords, allocTop: 3 * d * d}
	g.mulScanShuffled(2*d*d, 0, d*d, d, rng)
	return nil
}

func (g *traceGen) mulScanShuffled(cOff, aOff, bOff, d int64, rng *xrand.Source) {
	if d <= traceBaseDim {
		g.leafProduct(cOff, aOff, bOff, d)
		return
	}
	h := d / 2
	q := h * h
	t1 := g.allocTop
	t2 := t1 + d*d
	g.allocTop = t2 + d*d
	quad := func(off int64, qi, qj int64) int64 { return off + (2*qi+qj)*q }

	type prod struct{ tOff, aQ, bQ int64 }
	prods := make([]prod, 0, 8)
	for qi := int64(0); qi < 2; qi++ {
		for qj := int64(0); qj < 2; qj++ {
			prods = append(prods, prod{quad(t1, qi, qj), quad(aOff, qi, 0), quad(bOff, 0, qj)})
			prods = append(prods, prod{quad(t2, qi, qj), quad(aOff, qi, 1), quad(bOff, 1, qj)})
		}
	}
	rng.Shuffle(len(prods), func(i, j int) { prods[i], prods[j] = prods[j], prods[i] })
	for _, p := range prods {
		g.mulScanShuffled(p.tOff, p.aQ, p.bQ, h, rng)
	}

	g.touchRegion(t1, d*d)
	g.touchRegion(t2, d*d)
	g.touchRegion(cOff, d*d)
	g.allocTop = t1
}

// TraceMulInPlace emits the block trace of one MM-InPlace multiply of
// dim×dim matrices with blockWords words per block.
func TraceMulInPlace(dim int, blockWords int64) (*trace.Trace, error) {
	b := &trace.Builder{}
	if err := EmitMulInPlace(dim, blockWords, b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// EmitMulInPlace streams the MM-InPlace trace into s.
func EmitMulInPlace(dim int, blockWords int64, s trace.Sink) error {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return err
	}
	d := int64(dim)
	g := newTraceGen(s, blockWords, 0)
	g.mulInPlace(2*d*d, 0, d*d, d)
	return nil
}

func (g *traceGen) mulInPlace(cOff, aOff, bOff, d int64) {
	if g.st != nil && g.st.Stopped() {
		return
	}
	if d <= traceBaseDim {
		g.leafProduct(cOff, aOff, bOff, d)
		return
	}
	h := d / 2
	q := h * h
	quad := func(off int64, qi, qj int64) int64 { return off + (2*qi+qj)*q }
	for qi := int64(0); qi < 2; qi++ {
		for qj := int64(0); qj < 2; qj++ {
			for qk := int64(0); qk < 2; qk++ {
				g.mulInPlace(quad(cOff, qi, qj), quad(aOff, qi, qk), quad(bOff, qk, qj), h)
			}
		}
	}
}

// WorstCaseProfile builds the Figure-1 worst-case profile matched to the
// traced MM-Scan implementation for dim×dim matrices: recursively, the
// profile for a d×d product is eight copies of the profile for d/2
// followed by one box the size of the level's merge scan (3·d²/B blocks —
// read T1, read T2, write C); the base case gets a box exactly the size of
// a base-case product's footprint (3·⌈base²/B⌉ blocks). Running the traced
// MM-Scan against this profile reproduces the paper's lockstep: every box
// serves exactly one scan or one base case.
func WorstCaseProfile(dim int, blockWords int64) (*profile.SquareProfile, error) {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return nil, err
	}
	var boxes []int64
	var build func(d int64)
	build = func(d int64) {
		if d <= traceBaseDim {
			boxes = append(boxes, 3*((d*d+blockWords-1)/blockWords))
			return
		}
		for i := 0; i < 8; i++ {
			build(d / 2)
		}
		boxes = append(boxes, 3*d*d/blockWords)
	}
	build(int64(dim))
	return profile.New(boxes)
}

// WorstCaseBoxStream is the streaming form of WorstCaseProfile: it returns
// a box source whose first `count` boxes are exactly
// WorstCaseProfile(dim, blockWords).Boxes(), plus that count and the
// profile's total duration (Σ box sizes), both computed in closed form. The
// profile is never materialised — the recursive structure is an 8-ary
// odometer (a leaf box per base case, one level-j merge-scan box after
// every 8^j-th leaf) — so dim-4096-class profiles, whose materialised box
// slice alone would cost gigabytes, stream in O(log dim) memory.
func WorstCaseBoxStream(dim int, blockWords int64) (src profile.Source, count, duration int64, err error) {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return nil, 0, 0, err
	}
	leaf := 3 * ((traceBaseDim*traceBaseDim + blockWords - 1) / blockWords)
	closer := func(level int) int64 {
		d := traceBaseDim << level
		return 3 * d * d / blockWords
	}
	o, err := profile.NewOdometerSource(8, leaf, closer)
	if err != nil {
		return nil, 0, 0, err
	}
	count, duration = 1, leaf
	for d := traceBaseDim * 2; d <= int64(dim); d *= 2 {
		count = 8*count + 1
		duration = 8*duration + 3*d*d/blockWords
	}
	return o, count, duration, nil
}
