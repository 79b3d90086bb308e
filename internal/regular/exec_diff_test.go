package regular

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// divExec is the division-based executor the level-indexed Exec replaced,
// kept verbatim in behaviour as the differential reference: every box pays
// FloorPow and Levels (loops of integer divisions), a child's size is
// size/b, and every new frame or scan segment pays ScanLen's math.Pow.
type divExec struct {
	spec         Spec
	n            int64
	policy       ScanPolicy
	spreadScans  bool
	skipRootScan bool
	strictScans  bool

	stack      []divFrame
	done       bool
	leavesDone int64
	boxesUsed  int64
}

type divFrame struct {
	node, size, childrenDone, segRemaining, scanLeft int64
}

// divLeafCount returns a^k by repeated multiplication.
func divLeafCount(s Spec, k int) int64 {
	r := int64(1)
	for i := 0; i < k; i++ {
		r *= s.A
	}
	return r
}

func newDivExec(spec Spec, n int64, l execLayout) *divExec {
	e := &divExec{spec: spec, n: n, policy: l.policy, spreadScans: l.spread,
		skipRootScan: l.skipRoot, strictScans: l.strict}
	e.reset()
	return e
}

func (e *divExec) segmentAt(node, size, slot int64) int64 {
	if e.skipRootScan && node == NodeRoot {
		return 0
	}
	total := e.spec.ScanLen(size)
	if total == 0 {
		return 0
	}
	if e.spreadScans {
		if slot == 0 {
			return 0
		}
		part := total / e.spec.A
		if slot == e.spec.A {
			return part + total%e.spec.A
		}
		return part
	}
	at := e.spec.A
	if e.policy != nil {
		at = e.policy(node, size)
	}
	if slot == at {
		return total
	}
	return 0
}

func (e *divExec) newFrame(node, size int64) divFrame {
	f := divFrame{node: node, size: size, scanLeft: e.spec.ScanLen(size)}
	f.segRemaining = e.segmentAt(node, size, 0)
	return f
}

func (e *divExec) reset() {
	e.stack = e.stack[:0]
	e.done, e.leavesDone, e.boxesUsed = false, 0, 0
	if e.n == 1 {
		e.stack = append(e.stack, divFrame{node: NodeRoot, size: 1})
		return
	}
	root := e.newFrame(NodeRoot, e.n)
	if e.skipRootScan {
		root.scanLeft, root.segRemaining = 0, 0
	}
	e.stack = append(e.stack, root)
	e.normalise()
}

func (e *divExec) step(box int64) int64 {
	if e.done || box < 1 {
		return 0
	}
	e.boxesUsed++
	if e.n == 1 {
		e.leavesDone, e.done = 1, true
		return 1
	}
	target := e.spec.FloorPow(box)
	if target > e.n {
		target = e.n
	}
	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 {
			if !e.strictScans && target >= top.size {
				return e.completeWithProgress(e.frameIndexOfSize(target))
			}
			adv := box
			if adv > top.segRemaining {
				adv = top.segRemaining
			}
			top.segRemaining -= adv
			top.scanLeft -= adv
			if top.segRemaining == 0 {
				e.normalise()
			}
			return 0
		}
		childSize := top.size / e.spec.B
		switch {
		case target > childSize:
			return e.completeWithProgress(e.frameIndexOfSize(target))
		case target == childSize:
			progress := divLeafCount(e.spec, e.spec.Levels(childSize))
			e.leavesDone += progress
			top.childrenDone++
			top.segRemaining = e.segmentAt(top.node, top.size, top.childrenDone)
			e.normalise()
			return progress
		default:
			node := NodeChild(top.node, e.spec.A, top.childrenDone+1)
			e.stack = append(e.stack, e.newFrame(node, childSize))
		}
	}
}

func (e *divExec) completeWithProgress(idx int) int64 {
	var progress int64
	for i := idx; i < len(e.stack); i++ {
		f := e.stack[i]
		pending := e.spec.A - f.childrenDone
		if i < len(e.stack)-1 {
			pending--
		}
		progress += pending * divLeafCount(e.spec, e.spec.Levels(f.size)-1)
	}
	e.leavesDone += progress
	if idx == 0 {
		e.done = true
		e.stack = e.stack[:1]
		return progress
	}
	e.stack = e.stack[:idx]
	top := &e.stack[idx-1]
	top.childrenDone++
	top.segRemaining = e.segmentAt(top.node, top.size, top.childrenDone)
	e.normalise()
	return progress
}

func (e *divExec) frameIndexOfSize(size int64) int {
	depth := e.spec.Levels(e.n) - e.spec.Levels(size)
	if depth < 0 || depth >= len(e.stack) {
		panic(fmt.Sprintf("divExec: no frame of size %d on stack", size))
	}
	return depth
}

func (e *divExec) normalise() {
	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 || top.childrenDone < e.spec.A {
			return
		}
		if top.scanLeft > 0 {
			panic("divExec: scan accesses unplaced")
		}
		if len(e.stack) == 1 {
			e.done = true
			return
		}
		e.stack = e.stack[:len(e.stack)-1]
		parent := &e.stack[len(e.stack)-1]
		parent.childrenDone++
		parent.segRemaining = e.segmentAt(parent.node, parent.size, parent.childrenDone)
	}
}

// execLayout is one scan layout both executors are configured with.
type execLayout struct {
	name                     string
	policy                   ScanPolicy
	spread, strict, skipRoot bool
}

// execLayouts are the layouts the experiments run: canonical, a scan policy
// (up front, and one that moves by node), spread, strict, and skip-root-scan.
func execLayouts(spec Spec) []execLayout {
	upfront := func(node, size int64) int64 { return 0 }
	byNode := func(node, size int64) int64 { return node % (spec.A + 1) }
	return []execLayout{
		{name: "canonical"},
		{name: "upfront", policy: upfront},
		{name: "upfront-strict", policy: upfront, strict: true},
		{name: "by-node", policy: byNode},
		{name: "by-node-strict", policy: byNode, strict: true},
		{name: "spread", spread: true},
		{name: "strict", strict: true},
		{name: "skip-root-scan", skipRoot: true},
	}
}

func newLayoutExec(t testing.TB, spec Spec, n int64, l execLayout) *Exec {
	t.Helper()
	e, err := NewExecWithPolicy(spec, n, l.policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetStrictScans(l.strict); err != nil {
		t.Fatal(err)
	}
	if err := e.SetSpreadScans(l.spread); err != nil {
		t.Fatal(err)
	}
	if err := e.SetSkipRootScan(l.skipRoot); err != nil {
		t.Fatal(err)
	}
	return e
}

// compareExecs feeds next's boxes to the level-indexed executor and the
// division-based reference until both finish (or maxBoxes boxes), failing
// at the first box after which progress, LeavesDone, BoxesUsed or Done
// differ.
func compareExecs(t testing.TB, spec Spec, n int64, l execLayout, next func() int64, maxBoxes int) {
	t.Helper()
	e := newLayoutExec(t, spec, n, l)
	ref := newDivExec(spec, n, l)
	if got, want := e.TotalLeaves(), divLeafCount(spec, spec.Levels(n)); got != want {
		t.Fatalf("%v n=%d %s: TotalLeaves %d, want %d", spec, n, l.name, got, want)
	}
	for i := 0; i < maxBoxes && !(e.Done() && ref.done); i++ {
		box := next()
		got, want := e.Step(box), ref.step(box)
		if got != want || e.LeavesDone() != ref.leavesDone || e.BoxesUsed() != ref.boxesUsed || e.Done() != ref.done {
			t.Fatalf("%v n=%d %s box %d (size %d): progress/leaves/boxes/done = %d/%d/%d/%v, division executor %d/%d/%d/%v",
				spec, n, l.name, i, box, got, e.LeavesDone(), e.BoxesUsed(), e.Done(),
				want, ref.leavesDone, ref.boxesUsed, ref.done)
		}
	}
}

// diffSpecs are the specs the differential runs: both MM variants, a < b,
// a = b, the binary recursion, and a fractional scan exponent.
var diffSpecs = []Spec{
	MustSpec(8, 4, 1), MustSpec(8, 4, 0), MustSpec(2, 4, 1),
	MustSpec(4, 4, 1), MustSpec(2, 2, 1), MustSpec(3, 3, 0.5),
}

// TestExecMatchesDivisionExecutor runs the level-indexed executor against
// the division-based one it replaced over every spec, layout and problem
// size up to b^5 (and n = 1), under four box streams: i.i.d. sizes up to
// 2n, the worst-case profile M_{a,b}(n) (cycled), constant boxes at every
// power of b, and sizes strictly between consecutive powers of b.
func TestExecMatchesDivisionExecutor(t *testing.T) {
	const maxBoxes = 1 << 16
	for _, spec := range diffSpecs {
		for k := 0; k <= 5; k++ {
			n := profile.Pow(spec.B, k)
			wc, err := profile.WorstCase(spec.A, spec.B, n)
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range execLayouts(spec) {
				rng := xrand.New(xrand.Split(20, "exec-diff", spec.A, spec.B, int64(k), int64(li)))
				compareExecs(t, spec, n, l, func() int64 { return 1 + rng.Int63n(2*n) }, maxBoxes)

				i := 0
				compareExecs(t, spec, n, l, func() int64 { b := wc.Box(i % wc.Len()); i++; return b }, maxBoxes)

				for j := 0; j <= k+1; j++ {
					c := profile.Pow(spec.B, j)
					compareExecs(t, spec, n, l, func() int64 { return c }, maxBoxes)
				}

				// Sizes strictly between b^j and b^(j+1), cycling j.
				j := 0
				compareExecs(t, spec, n, l, func() int64 {
					lo := profile.Pow(spec.B, j%(k+1))
					j++
					if lo*(spec.B-1) < 2 {
						return lo // b = 2 and lo = 1: no size in between
					}
					return lo + 1 + rng.Int63n(lo*(spec.B-1)-1)
				}, maxBoxes)
			}
		}
	}
}

// TestExecLevelMatchesFloorPow pins the level lookup to FloorPow: for every
// box size up to b·n and a few huge ones, the target level's size is
// min(FloorPow(box), n).
func TestExecLevelMatchesFloorPow(t *testing.T) {
	for _, spec := range diffSpecs {
		for k := 0; k <= 6; k++ {
			n := profile.Pow(spec.B, k)
			e := mustExec(t, spec, n)
			check := func(box int64) {
				want := spec.FloorPow(box)
				if want > n {
					want = n
				}
				if got := e.pow[e.levelOf(box)]; got != want {
					t.Fatalf("%v n=%d box=%d: level size %d, FloorPow %d", spec, n, box, got, want)
				}
			}
			for box := int64(1); box <= spec.B*n; box++ {
				check(box)
			}
			for _, box := range []int64{1 << 40, math.MaxInt64} {
				check(box)
			}
		}
	}
}

// FuzzExecMatchesDivisionExecutor drives both executors with a box stream
// decoded from data: each byte picks a size around a power of b (one
// below, at, or one above b^j), so the stream keeps landing on the level
// boundaries an off-by-one would miss.
func FuzzExecMatchesDivisionExecutor(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(4), uint8(3), []byte{9, 9, 9, 3, 0, 0, 0, 0, 1})
	f.Add(uint8(5), uint8(6), uint8(5), []byte("spread scans"))
	f.Fuzz(func(t *testing.T, specIdx, layoutIdx, kRaw uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		spec := diffSpecs[int(specIdx)%len(diffSpecs)]
		layouts := execLayouts(spec)
		l := layouts[int(layoutIdx)%len(layouts)]
		k := int(kRaw) % 6
		n := profile.Pow(spec.B, k)
		i := 0
		next := func() int64 {
			by := data[i%len(data)]
			i++
			box := profile.Pow(spec.B, int(by>>2)%(k+2)) + int64(by&3) - 1
			if box < 1 {
				box = 1
			}
			return box
		}
		compareExecs(t, spec, n, l, next, 1<<14)
	})
}
