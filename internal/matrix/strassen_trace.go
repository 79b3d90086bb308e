package matrix

import (
	"repro/internal/trace"
)

// EmitMulStrassen streams into s the block trace of one Strassen multiply
// of dim×dim matrices with blockWords words per block — the paper's
// flagship sub-cubic example of an algorithm in the logarithmic gap
// (a = 7 > b = 4, c = 1: seven quarter-size subproblems plus Θ(N/B) of
// quadrant additions/subtractions).
//
// Layout matches EmitMulScan: A, B, C at word offsets 0, dim², 2·dim² in
// block-recursive order; the ten S-matrices and seven P-products of each
// level are stack-allocated above them. Every add/subtract that
// materialises an operand and the final combine are linear scans over
// contiguous quadrant regions.
func EmitMulStrassen(dim int, blockWords int64, s trace.Sink) error {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return err
	}
	d := int64(dim)
	g := newTraceGen(s, blockWords, 3*d*d)
	g.strassen(2*d*d, 0, d*d, d)
	return nil
}

func (g *traceGen) strassen(cOff, aOff, bOff, d int64) {
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
	a11, a12, a21, a22 := quad(aOff, 0, 0), quad(aOff, 0, 1), quad(aOff, 1, 0), quad(aOff, 1, 1)
	b11, b12, b21, b22 := quad(bOff, 0, 0), quad(bOff, 0, 1), quad(bOff, 1, 0), quad(bOff, 1, 1)

	// Stack-allocate 10 S operands and 7 P products (q words each).
	base := g.allocTop
	g.allocTop = base + 17*q
	s := func(i int64) int64 { return base + i*q }      // S1..S10 at slots 0..9
	p := func(i int64) int64 { return base + (10+i)*q } // P1..P7 at slots 10..16

	// combineScan materialises dst = x (op) y: read both operands, write
	// the destination — one of the level's linear scans.
	combine := func(dst, x, y int64) {
		g.touchRegion(x, q)
		g.touchRegion(y, q)
		g.touchRegion(dst, q)
	}

	// The classical seven products.
	combine(s(0), a11, a22) // S1 = A11 + A22
	combine(s(1), b11, b22) // S2 = B11 + B22
	g.strassen(p(0), s(0), s(1), h)

	combine(s(2), a21, a22) // S3 = A21 + A22
	g.strassen(p(1), s(2), b11, h)

	combine(s(3), b12, b22) // S4 = B12 - B22
	g.strassen(p(2), a11, s(3), h)

	combine(s(4), b21, b11) // S5 = B21 - B11
	g.strassen(p(3), a22, s(4), h)

	combine(s(5), a11, a12) // S6 = A11 + A12
	g.strassen(p(4), s(5), b22, h)

	combine(s(6), a21, a11) // S7 = A21 - A11
	combine(s(7), b11, b12) // S8 = B11 + B12
	g.strassen(p(5), s(6), s(7), h)

	combine(s(8), a12, a22) // S9 = A12 - A22
	combine(s(9), b21, b22) // S10 = B21 + B22
	g.strassen(p(6), s(8), s(9), h)

	// The final combine: each C quadrant reads the P products it needs and
	// is written once.
	c11, c12, c21, c22 := quad(cOff, 0, 0), quad(cOff, 0, 1), quad(cOff, 1, 0), quad(cOff, 1, 1)
	g.touchRegion(p(0), q)
	g.touchRegion(p(3), q)
	g.touchRegion(p(4), q)
	g.touchRegion(p(6), q)
	g.touchRegion(c11, q)

	g.touchRegion(p(2), q)
	g.touchRegion(p(4), q)
	g.touchRegion(c12, q)

	g.touchRegion(p(1), q)
	g.touchRegion(p(3), q)
	g.touchRegion(c21, q)

	g.touchRegion(p(0), q)
	g.touchRegion(p(1), q)
	g.touchRegion(p(2), q)
	g.touchRegion(p(5), q)
	g.touchRegion(c22, q)

	g.allocTop = base
}
