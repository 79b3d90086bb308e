package regular

import (
	"testing"
	"testing/quick"

	"repro/internal/profile"
	"repro/internal/xrand"
)

func mustExec(t *testing.T, spec Spec, n int64) *Exec {
	t.Helper()
	e, err := NewExec(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewExecValidation(t *testing.T) {
	if _, err := NewExec(MMScanSpec, 48); err == nil {
		t.Error("non-power size accepted")
	}
	if _, err := NewExec(MMScanSpec, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewExec(Spec{A: 8, B: 1, C: 1}, 4); err == nil {
		t.Error("invalid spec accepted")
	}
	// 8^40 leaves would overflow int64 accounting.
	if _, err := NewExec(MMScanSpec, profile.Pow(4, 21)); err == nil {
		t.Error("overflow-sized problem accepted")
	}
}

func TestSingleLeafProblem(t *testing.T) {
	e := mustExec(t, MMScanSpec, 1)
	if p := e.Step(1); p != 1 {
		t.Errorf("progress = %d, want 1", p)
	}
	if !e.Done() || e.LeavesDone() != 1 || e.BoxesUsed() != 1 {
		t.Errorf("state after leaf: done=%v leaves=%d boxes=%d", e.Done(), e.LeavesDone(), e.BoxesUsed())
	}
	if p := e.Step(100); p != 0 {
		t.Error("Step after done made progress")
	}
}

func TestHugeBoxCompletesInstantly(t *testing.T) {
	e := mustExec(t, MMScanSpec, 256)
	p := e.Step(1 << 40)
	if !e.Done() {
		t.Fatal("huge box did not complete problem")
	}
	if p != e.TotalLeaves() {
		t.Errorf("progress = %d, want all %d leaves", p, e.TotalLeaves())
	}
}

func TestExactBoxCompletes(t *testing.T) {
	e := mustExec(t, MMScanSpec, 256)
	if p := e.Step(256); p != e.TotalLeaves() || !e.Done() {
		t.Errorf("box of exactly n: progress=%d done=%v", p, e.Done())
	}
}

func TestUnitBoxesCostEqualsIOCost(t *testing.T) {
	// With size-1 boxes, every access needs its own box: boxes used must be
	// exactly T(n) = a·T(n/b) + n^c, and with skip-root-scan exactly
	// T(n) - ScanLen(n).
	for _, spec := range []Spec{MMScanSpec, MMInPlaceSpec, LCSSpec, MustSpec(3, 2, 1)} {
		n := profile.Pow(spec.B, 3)
		e := mustExec(t, spec, n)
		for !e.Done() {
			e.Step(1)
		}
		if got, want := float64(e.BoxesUsed()), spec.IOCost(n); got != want {
			t.Errorf("%v n=%d: unit boxes used %g, want T(n)=%g", spec, n, got, want)
		}
		if e.LeavesDone() != e.TotalLeaves() {
			t.Errorf("%v: leaves %d of %d", spec, e.LeavesDone(), e.TotalLeaves())
		}

		e2 := mustExec(t, spec, n)
		if err := e2.SetSkipRootScan(true); err != nil {
			t.Fatal(err)
		}
		for !e2.Done() {
			e2.Step(1)
		}
		if got, want := float64(e2.BoxesUsed()), spec.IOCost(n)-float64(spec.ScanLen(n)); got != want {
			t.Errorf("%v n=%d: f' unit boxes %g, want %g", spec, n, got, want)
		}
	}
}

func TestSetSkipRootScanAfterStart(t *testing.T) {
	e := mustExec(t, MMScanSpec, 16)
	e.Step(1)
	if err := e.SetSkipRootScan(true); err == nil {
		t.Error("SetSkipRootScan accepted mid-run")
	}
}

func TestChildSizedBoxes(t *testing.T) {
	// Boxes of size n/b: each completes one child of the root; then b boxes
	// finish the root scan (c=1). Total = a + b boxes.
	spec := MMScanSpec
	n := int64(256)
	e := mustExec(t, spec, n)
	child := n / spec.B
	boxes := int64(0)
	for !e.Done() {
		p := e.Step(child)
		boxes++
		if boxes <= spec.A {
			if p != e.TotalLeaves()/spec.A {
				t.Fatalf("box %d progress %d, want %d", boxes, p, e.TotalLeaves()/spec.A)
			}
		} else if p != 0 {
			t.Fatalf("scan box %d made progress %d", boxes, p)
		}
	}
	if boxes != spec.A+spec.B {
		t.Errorf("boxes used = %d, want %d", boxes, spec.A+spec.B)
	}
}

func TestWorstCaseProfileIsExactFit(t *testing.T) {
	// M_{a,b}(n) completes the canonical algorithm exactly at the profile's
	// last box, with leaf boxes making progress 1 and scan boxes progress 0.
	for _, tc := range []struct {
		spec Spec
		n    int64
	}{
		{MMScanSpec, 256},
		{MustSpec(2, 2, 1), 64},
		{MustSpec(4, 2, 1), 32},
		{MustSpec(3, 2, 1), 128},
	} {
		p, err := profile.WorstCase(tc.spec.A, tc.spec.B, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		e := mustExec(t, tc.spec, tc.n)
		for i := 0; i < p.Len(); i++ {
			if e.Done() {
				t.Fatalf("%v n=%d: finished early at box %d of %d", tc.spec, tc.n, i, p.Len())
			}
			box := p.Box(i)
			prog := e.Step(box)
			if box == 1 && prog != 1 {
				t.Fatalf("%v: leaf box %d progress %d, want 1", tc.spec, i, prog)
			}
			if box > 1 && prog != 0 {
				t.Fatalf("%v: scan box %d (size %d) progress %d, want 0", tc.spec, i, box, prog)
			}
		}
		if !e.Done() {
			t.Fatalf("%v n=%d: profile exhausted but not done", tc.spec, tc.n)
		}
		if e.LeavesDone() != e.TotalLeaves() {
			t.Fatalf("%v: leaves %d of %d", tc.spec, e.LeavesDone(), e.TotalLeaves())
		}
	}
}

func TestBoxBetweenPowersRoundsDown(t *testing.T) {
	// A box of size 5 at the start of a 256-problem (b=4) completes the
	// leftmost descendant of size 4 — same as a box of size 4.
	e1 := mustExec(t, MMScanSpec, 256)
	e2 := mustExec(t, MMScanSpec, 256)
	p1 := e1.Step(5)
	p2 := e2.Step(4)
	if p1 != p2 || p1 != 8 { // 8 leaves in a size-4 subproblem
		t.Errorf("size-5 box progress %d, size-4 box progress %d, want 8", p1, p2)
	}
}

func TestScanAdvanceSemantics(t *testing.T) {
	// Drive a (8,4,1) problem of size 16 to its root scan with child-sized
	// boxes, then feed small boxes through the scan.
	spec := MMScanSpec
	e := mustExec(t, spec, 16)
	for i := int64(0); i < spec.A; i++ {
		if p := e.Step(4); p != 8 {
			t.Fatalf("child box progress %d", p)
		}
	}
	// Root scan has 16 accesses; boxes of size 4 (< 16) advance 4 each.
	for i := 0; i < 4; i++ {
		if e.Done() {
			t.Fatal("finished before scan done")
		}
		if p := e.Step(4); p != 0 {
			t.Fatalf("scan box progress %d", p)
		}
	}
	if !e.Done() {
		t.Error("scan of 16 not finished by 4 boxes of size 4")
	}
}

func TestScanCompletedByLargeBox(t *testing.T) {
	// A box >= the scanning problem's size completes the problem (rest of
	// scan included).
	spec := MMScanSpec
	e := mustExec(t, spec, 16)
	for i := int64(0); i < spec.A; i++ {
		e.Step(4)
	}
	e.Step(4) // 4 accesses into the 16-access root scan
	if p := e.Step(16); p != 0 || !e.Done() {
		t.Errorf("large box in scan: progress=%d done=%v", p, e.Done())
	}
}

func TestRunCollect(t *testing.T) {
	e := mustExec(t, MMScanSpec, 64)
	src := profile.FuncSource(func() int64 { return 16 })
	var total int64
	if err := e.Run(src.Next, 0, func(_, p int64) { total += p }); err != nil {
		t.Fatal(err)
	}
	if total != e.TotalLeaves() {
		t.Errorf("total progress %d, want %d", total, e.TotalLeaves())
	}
}

func TestRunMaxBoxesGuard(t *testing.T) {
	e := mustExec(t, MMScanSpec, 1024)
	err := e.Run(func() int64 { return 1 }, 10, nil)
	if err == nil {
		t.Error("maxBoxes guard did not trip")
	}
}

func TestRunRejectsBadSource(t *testing.T) {
	e := mustExec(t, MMScanSpec, 16)
	if err := e.Run(func() int64 { return 0 }, 0, nil); err == nil {
		t.Error("zero-size box accepted")
	}
}

// Property: for any spec in the experiment family and any random box
// stream, the execution completes with total progress equal to the leaf
// count, never exceeds stack depth log_b n + 1 implicitly (would panic), and
// per-box progress is bounded by ρ(min(box, n)) with rounding slack — a box
// can never make more progress than (a/b)·its bounded potential... we use
// the crude sound bound progress <= leaves(min(box↓·b, n)).
func TestRandomRunInvariants(t *testing.T) {
	specs := []Spec{MMScanSpec, MMInPlaceSpec, LCSSpec, StrassenSpec, MustSpec(3, 2, 1), MustSpec(2, 4, 0.5)}
	rng := xrand.New(2024)
	check := func(seed uint32, specIdx uint8, kRaw uint8) bool {
		spec := specs[int(specIdx)%len(specs)]
		k := int(kRaw)%4 + 1
		n := profile.Pow(spec.B, k)
		e, err := NewExec(spec, n)
		if err != nil {
			return false
		}
		local := xrand.New(uint64(seed))
		var total int64
		for !e.Done() {
			box := 1 + local.Int63n(2*n)
			p := e.Step(box)
			// Sound upper bound on progress of one box.
			capSize := spec.FloorPow(box) * spec.B
			if capSize > n {
				capSize = n
			}
			if float64(p) > spec.LeafCount(capSize) {
				return false
			}
			total += p
		}
		return total == e.TotalLeaves()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

// Property: monotonicity — prepending a useless (size-1) box never lets the
// execution finish in fewer subsequent boxes (executor-level analogue of
// the No-Catch-up Lemma's intuition).
func TestPrependedBoxMonotonic(t *testing.T) {
	check := func(seed uint32, kRaw uint8) bool {
		k := int(kRaw)%4 + 2
		n := profile.Pow(4, k)
		mk := func(delay bool) int64 {
			e, err := NewExec(MMScanSpec, n)
			if err != nil {
				return -1
			}
			local := xrand.New(uint64(seed))
			if delay {
				e.Step(1)
			}
			for !e.Done() {
				e.Step(1 + local.Int63n(2*n))
			}
			return e.BoxesUsed()
		}
		plain := mk(false)
		delayed := mk(true)
		if plain < 0 || delayed < 0 {
			return false
		}
		// The delayed run consumed one extra (useless) box and then the
		// same stream; it can finish at most one box later in stream terms,
		// i.e. delayed <= plain + 1 always, and delayed >= ... it must not
		// finish in strictly fewer total boxes than the plain run.
		return delayed >= plain
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestResetReusesExecutor(t *testing.T) {
	e := mustExec(t, MMScanSpec, 64)
	for !e.Done() {
		e.Step(7)
	}
	first := e.BoxesUsed()
	e.Reset()
	if e.Done() || e.BoxesUsed() != 0 || e.LeavesDone() != 0 {
		t.Fatal("Reset did not clear state")
	}
	for !e.Done() {
		e.Step(7)
	}
	if e.BoxesUsed() != first {
		t.Errorf("deterministic rerun used %d boxes, first run %d", e.BoxesUsed(), first)
	}
}
