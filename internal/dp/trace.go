package dp

import (
	"fmt"

	"repro/internal/trace"
)

// EmitLCS streams into s the block-reference trace of the quadrant
// LCS/edit recursion on strings of xLen characters (power of two), with
// blockWords characters (or boundary entries) per block.
//
// Layout: X occupies words [0, n), Y words [n, 2n); boundary vectors come
// from a stack allocator above them, allocated per recursive call and
// released on exit, mirroring a real implementation. A subproblem on
// string halves of length m touches Θ(m/B) blocks of X, Y, and boundary —
// the Θ(n) distinct-blocks property — and each base-case block marks a
// leaf. The per-call boundary stitch is the linear scan: Θ(m/B) contiguous
// accesses, making the kernel (4,2,1)-regular in blocks.
func EmitLCS(xLen int, blockWords int64, s trace.Sink) error {
	if xLen < 1 || xLen&(xLen-1) != 0 {
		return fmt.Errorf("dp: traced kernel needs power-of-two length, got %d", xLen)
	}
	if xLen < baseLen {
		return fmt.Errorf("dp: traced kernel needs length >= %d, got %d", baseLen, xLen)
	}
	if blockWords < 1 {
		return fmt.Errorf("dp: block size %d < 1", blockWords)
	}
	g := &lcsTraceGen{s: s, bw: blockWords, allocTop: 2 * int64(xLen)}
	g.rec(0, int64(xLen), int64(xLen))
	return nil
}

type lcsTraceGen struct {
	s        trace.Sink
	bw       int64
	allocTop int64
}

func (g *lcsTraceGen) touch(off, words int64) {
	first := off / g.bw
	last := (off + words - 1) / g.bw
	g.s.AccessRange(first, last-first+1)
}

// rec traces the subproblem on X[xOff..xOff+m) and the aligned Y range
// (whose words live at n + same offsets; using xOff for both keeps the
// bookkeeping simple and the footprint faithful).
func (g *lcsTraceGen) rec(xOff, m, n int64) {
	if m <= baseLen {
		// Base case: stream the X and Y chunks and a boundary buffer.
		g.touch(xOff, m)
		g.touch(n+xOff, m)
		bnd := g.allocTop
		g.allocTop += 2 * m
		g.touch(bnd, 2*m)
		g.allocTop = bnd
		g.s.EndLeaf()
		return
	}
	h := m / 2
	// Boundary vectors for the four quadrants (2m words), stack-allocated.
	bnd := g.allocTop
	g.allocTop += 2 * m

	// Q11 (x1,y1), Q12 (x1,y2), Q21 (x2,y1), Q22 (x2,y2): quadrants reuse
	// the two string halves pairwise — the a > b data reuse.
	g.rec(xOff, h, n)
	g.rec(xOff, h, n) // x1 with y2 (same X half; Y tracked via same offsets)
	g.rec(xOff+h, h, n)
	g.rec(xOff+h, h, n)

	// Boundary stitch: the linear scan over the 2m-word boundary.
	g.touch(bnd, 2*m)
	g.allocTop = bnd
}
