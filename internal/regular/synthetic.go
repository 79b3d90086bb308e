package regular

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// SyntheticTrace generates an explicit block-reference trace for the
// canonical (a,b,c)-regular algorithm on a problem of n blocks.
//
// Addressing scheme: the problem of size m occupies the block range
// [off, off+m). Its a children each have size m/b; child i occupies the
// slot range [off + (i mod b)·(m/b), ·+m/b) — with a > b, children reuse
// slots, modelling the data reuse that makes a > b algorithms cache-size
// sensitive (e.g. MM-Scan's eight quadrant products over four quadrants).
// The final scan touches the first ScanLen(m) blocks of the problem's
// range (all m blocks when c = 1). Base cases access their single block
// and mark a leaf completion.
//
// The trace therefore references exactly m distinct blocks for a problem of
// size m (the Θ(n) distinct-blocks property of Definition 2), and its
// length equals Spec.IOCost(n).
func SyntheticTrace(spec Spec, n int64) (*trace.Trace, error) {
	if err := validateSynthetic(spec, n); err != nil {
		return nil, err
	}
	if cost := spec.IOCost(n); cost > 1<<28 {
		return nil, fmt.Errorf("regular: synthetic trace for n = %d would have %.3g references; too large", n, cost)
	}
	return trace.Materialize(func(s trace.Sink) error { return EmitSynthetic(spec, n, s) })
}

// EmitSynthetic streams the canonical trace into s without materializing
// it. Unlike SyntheticTrace it has no reference-count ceiling: the
// consumer's memory is bounded by its own state (O(n) for the paging
// sinks), not by the trace length, so problem sizes whose materialized
// trace would not fit in memory stream fine. If s implements trace.Stopper
// the emission is abandoned at subproblem granularity once s stops
// consuming — the prefix emitted before the stop is unchanged, so a
// stopper-aware sink sees exactly the same stream as a plain one.
func EmitSynthetic(spec Spec, n int64, s trace.Sink) error {
	if err := validateSynthetic(spec, n); err != nil {
		return err
	}
	st, _ := s.(trace.Stopper)
	k := spec.Levels(n)
	g := synthEmitter{s: s, st: st, a: spec.A, b: spec.B, scan: scanLens(spec, k)}
	g.rec(n, k, 0)
	return nil
}

func validateSynthetic(spec Spec, n int64) error {
	if _, err := NewSpec(spec.A, spec.B, spec.C); err != nil {
		return err
	}
	if !spec.ValidSize(n) {
		return fmt.Errorf("regular: problem size %d is not a power of b = %d", n, spec.B)
	}
	return nil
}

// synthEmitter carries one emission's fixed state down the recursion: the
// sink, its Stopper view (nil if it has none) and the spec's per-level
// scan lengths, tabled once per emission.
type synthEmitter struct {
	s    trace.Sink
	st   trace.Stopper
	a, b int64
	scan [maxLevels]int64 // scan[ℓ] = ScanLen(b^ℓ)
}

// rec emits the subproblem of size m = b^l at off. A node whose children
// are base cases (m == b) emits its a leaves inline, so the recursion —
// and the early-stop check — runs once per leaf-parent, not once per leaf.
// After a stop, at most the current leaf-parent's leaves and scan are
// still emitted: every larger node checks again before its scan.
func (g *synthEmitter) rec(m int64, l int, off int64) {
	if g.st != nil && g.st.Stopped() {
		return
	}
	child := m / g.b
	switch {
	case m == 1:
		g.s.Access(off)
		g.s.EndLeaf()
		return
	case child == 1:
		// Child i's slot is i mod b, kept as a wrapping counter rather
		// than divided out per leaf.
		for i, slot := int64(0), int64(0); i < g.a; i++ {
			g.s.Access(off + slot)
			g.s.EndLeaf()
			if slot++; slot == g.b {
				slot = 0
			}
		}
	default:
		for i, slot := int64(0), int64(0); i < g.a; i++ {
			g.rec(child, l-1, off+slot*child)
			if slot++; slot == g.b {
				slot = 0
			}
		}
		if g.st != nil && g.st.Stopped() {
			return
		}
	}
	g.s.AccessRange(off, g.scan[l])
}

// EmitSyntheticShuffled streams into s the canonical trace with the a
// subproblems of every node executed in an independent uniformly random
// order — the natural first candidate for the paper's open question about
// randomised algorithms defeating worst-case profiles. Each child keeps
// its data slot (slot = original index mod b), so only the execution
// order is randomised, exactly as a randomised divide-and-conquer would
// behave. Like EmitSynthetic it has no reference-count ceiling.
func EmitSyntheticShuffled(spec Spec, n int64, rng *xrand.Source, s trace.Sink) error {
	if err := validateSynthetic(spec, n); err != nil {
		return err
	}
	k := spec.Levels(n)
	scan := scanLens(spec, k)
	emitSyntheticShuffled(s, spec, &scan, n, k, 0, rng)
	return nil
}

func emitSyntheticShuffled(s trace.Sink, spec Spec, scan *[maxLevels]int64, m int64, l int, off int64, rng *xrand.Source) {
	if m == 1 {
		s.Access(off)
		s.EndLeaf()
		return
	}
	child := m / spec.B
	order := rng.Perm(int(spec.A))
	for _, i := range order {
		slot := int64(i) % spec.B
		emitSyntheticShuffled(s, spec, scan, child, l-1, off+slot*child, rng)
	}
	s.AccessRange(off, scan[l])
}
