package gep

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/paging"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Error("0 vertices accepted")
	}
	g, err := NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 0 || !math.IsInf(g.At(0, 1), 1) {
		t.Error("fresh graph wrong")
	}
}

func TestFloydWarshallKnown(t *testing.T) {
	// 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
	g, _ := NewGraph(4)
	g.Set(0, 1, 1)
	g.Set(1, 2, 2)
	g.Set(0, 2, 10)
	FloydWarshall(g)
	if g.At(0, 2) != 3 {
		t.Errorf("dist(0,2) = %g, want 3", g.At(0, 2))
	}
	if !math.IsInf(g.At(2, 0), 1) {
		t.Error("unreachable pair became finite")
	}
}

func TestRecursiveMatchesClassic(t *testing.T) {
	src := xrand.New(33)
	for _, n := range []int{8, 16, 32, 64} {
		for trial := 0; trial < 4; trial++ {
			g, err := NewRandomGraph(n, 0.25, src)
			if err != nil {
				t.Fatal(err)
			}
			classic := g.Clone()
			FloydWarshall(classic)
			rec := g.Clone()
			if err := FloydWarshallRec(rec); err != nil {
				t.Fatal(err)
			}
			if !rec.EqualApprox(classic, 1e-9) {
				t.Fatalf("n=%d trial=%d: recursive FW differs from classic", n, trial)
			}
		}
	}
}

func TestRecursiveNeedsPowerOfTwo(t *testing.T) {
	g, _ := NewGraph(12)
	if err := FloydWarshallRec(g); err == nil {
		t.Error("n=12 accepted")
	}
}

// Property: FW results satisfy the triangle inequality and are idempotent.
func TestFWProperties(t *testing.T) {
	check := func(seed uint32, pRaw uint8) bool {
		src := xrand.New(uint64(seed))
		p := 0.1 + float64(pRaw%5)*0.15
		g, err := NewRandomGraph(16, p, src)
		if err != nil {
			return false
		}
		FloydWarshall(g)
		// Triangle inequality: d(i,j) <= d(i,k) + d(k,j).
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				for k := 0; k < 16; k++ {
					if g.At(i, j) > g.At(i, k)+g.At(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		// Idempotence.
		again := g.Clone()
		FloydWarshall(again)
		return again.EqualApprox(g, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := materialize(EmitFWScan, 12, 8); err == nil {
		t.Error("non-power dim accepted")
	}
	if _, err := materialize(EmitFWInPlace, 4, 8); err == nil {
		t.Error("tiny dim accepted")
	}
	if _, err := materialize(EmitFWScan, 64, 0); err == nil {
		t.Error("block 0 accepted")
	}
}

func TestTraceShapes(t *testing.T) {
	const dim, bw = 64, 8
	inp, err := materialize(EmitFWInPlace, dim, bw)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := materialize(EmitFWScan, dim, bw)
	if err != nil {
		t.Fatal(err)
	}
	// Both perform 8^levels base cases.
	want := int64(512) // levels = log2(64/8) = 3 -> 8^3
	if inp.Leaves() != want || scan.Leaves() != want {
		t.Errorf("leaves: inplace %d, scan %d, want %d", inp.Leaves(), scan.Leaves(), want)
	}
	// The in-place variant touches exactly the matrix: dim²/B blocks.
	if got := inp.DistinctBlocks(); got != int64(dim*dim)/bw {
		t.Errorf("in-place distinct %d, want %d", got, int64(dim*dim)/bw)
	}
	// The copying variant touches strictly more (the temporaries).
	if scan.DistinctBlocks() <= inp.DistinctBlocks() {
		t.Error("scan variant should touch more blocks")
	}
	if scan.Len() <= inp.Len() {
		t.Error("scan variant trace should be longer")
	}
}

// The paper's MM-Scan/MM-InPlace contrast, replayed on GEP: on the
// adversarial profile matched to the copying variant, the in-place GEP
// completes more Floyd–Warshall instances.
func TestGEPScanVsInPlaceOnWorstCase(t *testing.T) {
	const dim, bw = 64, 8
	wc, err := WorstCaseProfile(dim, bw)
	if err != nil {
		t.Fatal(err)
	}
	boxes := wc.Boxes()
	count := func(emit func(int, int64, trace.Sink) error) int {
		tr, err := materialize(emit, dim, bw)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh instances: shift each repetition's blocks.
		stride := tr.MaxBlock() + 1
		b := &trace.Builder{}
		for r := int64(0); r < 10; r++ {
			for i := 0; i < tr.Len(); i++ {
				b.Access(tr.Block(i) + r*stride)
				if tr.EndsLeaf(i) {
					b.EndLeaf()
				}
			}
		}
		rep := b.Build()
		end, err := paging.SquareRunFrom(rep, 0, boxes)
		if err != nil {
			t.Fatal(err)
		}
		return end / tr.Len()
	}
	scanCount := count(EmitFWScan)
	inpCount := count(EmitFWInPlace)
	if inpCount <= scanCount {
		t.Errorf("in-place GEP completed %d vs copying GEP's %d; expected strictly more", inpCount, scanCount)
	}
}

// materialize buffers one of this package's emitters into a trace.
func materialize(emit func(int, int64, trace.Sink) error, size int, bw int64) (*trace.Trace, error) {
	return trace.Materialize(func(s trace.Sink) error { return emit(size, bw, s) })
}
