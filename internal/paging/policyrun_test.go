package paging

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func totalIOs(stats []BoxStat) int64 {
	var s int64
	for _, b := range stats {
		s += b.IOs
	}
	return s
}

// TestPolicyRunConstantProfileMatchesFixed pins the box replay to the
// DAM-model ground truth: with a constant box size M the capacity never
// changes and the cache is never cleared, so the total I/Os across boxes
// must equal the plain fixed-capacity miss count of the same policy — for
// every registered kernel and for the clairvoyant "opt" replay.
func TestPolicyRunConstantProfileMatchesFixed(t *testing.T) {
	names := append(PolicyNames(), OPTReplayName)
	for trial := 0; trial < 10; trial++ {
		src := xrand.New(xrand.Split(52, "policyrun-const", int64(trial)))
		tr := localTrace(src, 800, 1+src.Int63n(96))
		for _, m := range []int64{1, 3, 8, 21} {
			for _, name := range names {
				stats, err := PolicyRun(name, tr, constSource{m}, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := RunPolicyFixed(name, tr, m)
				if err != nil {
					t.Fatal(err)
				}
				if got := totalIOs(stats); got != want {
					t.Fatalf("trial %d, %s at M=%d: box replay cost %d, fixed replay %d",
						trial, name, m, got, want)
				}
				for i, b := range stats {
					if b.IOs > b.Size {
						t.Fatalf("%s box %d: %d I/Os over budget %d", name, i, b.IOs, b.Size)
					}
					if i < len(stats)-1 && b.IOs != b.Size {
						t.Fatalf("%s box %d closed with %d/%d I/Os", name, i, b.IOs, b.Size)
					}
				}
			}
		}
	}
}

// TestPolicyRunSquareRouting: the reserved "square" name must replay
// through the cleared-cache SquareStream exactly.
func TestPolicyRunSquareRouting(t *testing.T) {
	src := xrand.New(xrand.Split(52, "policyrun-square", 0))
	tr := localTrace(src, 600, 48)
	boxes, err := sawtoothSteps(2, 17, 9, 40)
	if err != nil {
		t.Fatal(err)
	}
	bs1, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PolicyRun(SquareReplayName, tr, bs1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bs2, err := profile.NewBoxesSource(boxes)
	if err != nil {
		t.Fatal(err)
	}
	var want []BoxStat
	q := NewSquareStream(bs2, 0, collect(&want))
	trace.Replay(tr, q)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("square routing ledger diverges from SquareStream:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPolicyRunLeafAttribution: every replay name credits each leaf to the
// box that served its last access. Boxes of size 2 over a trace that
// misses on every reference close after each pair, and a leaf ends each
// pair, so every box completes exactly one leaf.
func TestPolicyRunLeafAttribution(t *testing.T) {
	tr := buildTrace([]int64{0, 1, 2, 3, 0, 1}, map[int]bool{1: true, 3: true, 5: true})
	for _, name := range ReplayNames() {
		stats, err := PolicyRun(name, tr, constSource{2}, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(stats) != 3 {
			t.Fatalf("%s: %d boxes, want 3: %+v", name, len(stats), stats)
		}
		for i, b := range stats {
			if b.Leaves != 1 {
				t.Errorf("%s box %d completed %d leaves, want 1: %+v", name, i, b.Leaves, stats)
			}
		}
	}
}

// TestReplayOPTRefusesBeyondCeiling: the opt replay must refuse a stream
// past the materialization ceiling before emitting a single reference.
func TestReplayOPTRefusesBeyondCeiling(t *testing.T) {
	emit := func(trace.Sink) error {
		t.Fatal("opt replay started materializing a stream past its ceiling")
		return nil
	}
	if err := Replay(OPTReplayName, emit, 1<<28+1, 15, constSource{4}, 0, discardBoxes); err == nil {
		t.Fatal("opt replay accepted a stream past the ceiling")
	}
}

// TestPolicyRunVaryingProfileMatchesOracle drives the live-policy box
// replay over a sawtooth profile and re-derives its per-box cost from the
// naive oracles plus hand-rolled box accounting.
func TestPolicyRunVaryingProfileMatchesOracle(t *testing.T) {
	src := xrand.New(xrand.Split(53, "policyrun-vary", 0))
	tr := localTrace(src, 900, 64)
	boxes, err := sawtoothSteps(2, 23, 11, 4000)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"arc", "2q"} {
		bs, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := PolicyRun(name, tr, bs, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle replay with explicit box accounting.
		type oracle interface {
			Access(block int64) bool
			SetCapacity(capacity int64)
		}
		var o oracle
		switch name {
		case "arc":
			o = newOracleARC(boxes[0])
		case "2q":
			o = newOracle2Q(boxes[0])
		}
		var want []BoxStat
		bi := 0
		cur := BoxStat{Size: boxes[0]}
		for i := 0; i < tr.Len(); i++ {
			blk := tr.Block(i)
			// Residency must be checked before Access mutates state: a miss
			// with the budget spent belongs to the *next* box, under the
			// next box's capacity.
			resident := false
			switch v := o.(type) {
			case *oracleARC:
				resident = v.residentSet()[blk]
			case *oracle2Q:
				resident = v.residentSet()[blk]
			}
			if !resident && cur.IOs == cur.Size {
				want = append(want, cur)
				bi++
				cur = BoxStat{Size: boxes[bi]}
				o.SetCapacity(boxes[bi])
			}
			if o.Access(blk) {
				cur.Refs++
			} else {
				cur.IOs++
				cur.Refs++
			}
		}
		want = append(want, cur)

		if len(stats) != len(want) {
			t.Fatalf("%s: %d boxes, oracle %d", name, len(stats), len(want))
		}
		for i := range stats {
			if stats[i] != want[i] {
				t.Fatalf("%s box %d: %+v, oracle %+v", name, i, stats[i], want[i])
			}
		}
	}
}

// TestReplayOPTVaryingProfileMatchesOracle drives the opt box replay over
// sawtooth and i.i.d. profiles and compares its whole ledger, leaves
// included, with a linear-scan farthest-in-future oracle doing its own box
// accounting. Traces are long enough against the box sizes that the heap
// evicts and re-keys many times per replay.
func TestReplayOPTVaryingProfileMatchesOracle(t *testing.T) {
	sawtooth, err := sawtoothSteps(2, 23, 11, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		src := xrand.New(xrand.Split(56, "opt-vary", int64(trial)))
		tr := withLeaves(src, localTrace(src, 700, 1+src.Int63n(80)), 0.2)
		iid := make([]int64, 64)
		for i := range iid {
			iid[i] = 1 + src.Int63n(24)
		}
		for _, boxes := range [][]int64{sawtooth, iid} {
			bs, err := profile.NewBoxesSource(boxes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PolicyRun(OPTReplayName, tr, bs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleOPTBoxes(tr, boxes); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, boxes %v...: ledger diverges from the oracle:\ngot  %+v\nwant %+v", trial, boxes[:4], got, want)
			}
		}
	}
}

// withLeaves rebuilds tr with a leaf marker after each access with
// probability p.
func withLeaves(src *xrand.Source, tr *trace.Trace, p float64) *trace.Trace {
	var b trace.Builder
	for i := 0; i < tr.Len(); i++ {
		b.Access(tr.Block(i))
		if src.Float64() < p {
			b.EndLeaf()
		}
	}
	return b.Build()
}

// TestPolicyRunUnknownName: the error must list every accepted replay name
// so a flag typo is self-diagnosing.
func TestPolicyRunUnknownName(t *testing.T) {
	src := xrand.New(xrand.Split(54, "policyrun-unknown", 0))
	tr := localTrace(src, 10, 4)
	_, err := PolicyRun("belady-crystal-ball", tr, constSource{4}, 0)
	if err == nil {
		t.Fatal("unknown replay name accepted")
	}
	for _, name := range ReplayNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list accepted name %q", err, name)
		}
	}
}

// TestReplayOPTNeverWorseThanKernels: under a constant profile the
// clairvoyant "opt" box replay is the true fixed-capacity OPT, so no kernel
// may beat it.
func TestReplayOPTNeverWorseThanKernels(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		src := xrand.New(xrand.Split(55, "optboxes-floor", int64(trial)))
		tr := localTrace(src, 700, 1+src.Int63n(48))
		for _, m := range []int64{2, 5, 13} {
			opt, err := PolicyRun(OPTReplayName, tr, constSource{m}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range PolicyNames() {
				on, err := PolicyRun(name, tr, constSource{m}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if totalIOs(opt) > totalIOs(on) {
					t.Fatalf("trial %d, M=%d: OPT cost %d beats %s cost %d the wrong way",
						trial, m, totalIOs(opt), name, totalIOs(on))
				}
			}
		}
	}
}

// TestSharedOPTRecordingMatchesPerCall: one OPTRecording per trace, shared
// by concurrent engine cells the way the smoothness sweep shares it, gives
// every cell the miss count and ledger a fresh per-call recording gives.
// Run under -race, it also checks that replays only read the recording.
func TestSharedOPTRecordingMatchesPerCall(t *testing.T) {
	const nTraces = 3
	caps := []int64{1, 2, 3, 5, 8, 13, 21, 34}
	traces := make([]*trace.Trace, nTraces)
	recs := make([]*OPTRecording, nTraces)
	for i := range traces {
		src := xrand.New(xrand.Split(57, "opt-shared", int64(i)))
		traces[i] = withLeaves(src, localTrace(src, 900, 1+src.Int63n(80)), 0.2)
		rec, err := RecordOPT(traces[i].Emit, int64(traces[i].Len()), traces[i].MaxBlock())
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	boxes := []int64{3, 1, 7, 2, 12, 5, 1, 9}
	n := nTraces * len(caps)
	fixed := make([]int64, n)
	ledgers := make([][]BoxStat, n)
	g := engine.New(4).Group()
	if err := g.Map(n, func(cell, _ int) error {
		rec := recs[cell/len(caps)]
		var err error
		if fixed[cell], err = rec.Fixed(caps[cell%len(caps)]); err != nil {
			return err
		}
		bs, err := profile.NewBoxesSource(boxes)
		if err != nil {
			return err
		}
		return rec.Replay(bs, 0, collect(&ledgers[cell]))
	}); err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < n; cell++ {
		tr, m := traces[cell/len(caps)], caps[cell%len(caps)]
		want, err := RunPolicyFixed(OPTReplayName, tr, m)
		if err != nil {
			t.Fatal(err)
		}
		if fixed[cell] != want {
			t.Fatalf("trace %d, M=%d: shared recording %d misses, per-call %d", cell/len(caps), m, fixed[cell], want)
		}
		bs, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		wantLedger, err := PolicyRun(OPTReplayName, tr, bs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ledgers[cell], wantLedger) {
			t.Fatalf("trace %d: shared-recording ledger diverges from PolicyRun:\ngot  %+v\nwant %+v", cell/len(caps), ledgers[cell], wantLedger)
		}
	}
}
