package adaptivity

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestGapOnWorstCaseProfileIsExactlyLog(t *testing.T) {
	// On M_{a,b}(n) the gap is exactly log_b n + 1 (Theorem 2's log gap,
	// with the profile's exact potential accounting).
	for _, tc := range []struct{ a, b int64 }{{8, 4}, {2, 2}, {4, 2}} {
		spec := regular.MustSpec(tc.a, tc.b, 1)
		for k := 1; k <= 5; k++ {
			n := profile.Pow(tc.b, k)
			wc, err := profile.WorstCase(tc.a, tc.b, n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := GapOnProfile(spec, n, wc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Gap(), float64(k+1); math.Abs(got-want) > 1e-9 {
				t.Errorf("%v n=%d: gap = %g, want %g", spec, n, got, want)
			}
			if res.Boxes != int64(wc.Len()) {
				t.Errorf("%v n=%d: used %d boxes, profile has %d", spec, n, res.Boxes, wc.Len())
			}
			if float64(res.Progress) != spec.LeafCount(n) {
				t.Errorf("%v n=%d: progress %d", spec, n, res.Progress)
			}
		}
	}
}

func TestGapOnConstantFullBoxes(t *testing.T) {
	// Boxes of exactly size n: gap 1 — perfectly adaptive execution.
	spec := regular.MMScanSpec
	n := int64(256)
	res, err := GapOnProfile(spec, n, profile.MustNew([]int64{n}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gap()-1) > 1e-9 {
		t.Errorf("gap = %g, want 1", res.Gap())
	}
}

func TestMeasureTraceMatchesSymbolicOnWorstCase(t *testing.T) {
	spec := regular.MMScanSpec
	n := int64(64)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := GapOnProfile(spec, n, wc)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := profile.NewSliceSource(wc)
	tr, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Boxes != tr.Boxes {
		t.Errorf("boxes: symbolic %d, trace %d", sym.Boxes, tr.Boxes)
	}
	if sym.Progress != tr.Progress {
		t.Errorf("progress: symbolic %d, trace %d", sym.Progress, tr.Progress)
	}
	if math.Abs(sym.Gap()-tr.Gap()) > 1e-9 {
		t.Errorf("gap: symbolic %g, trace %g", sym.Gap(), tr.Gap())
	}
}

// TestMeasureTraceIdenticalAcrossWorkerCounts pins the determinism
// contract experiments rely on when they call the square replay from
// engine cells: the full RunResult — including the float accumulations —
// is identical at every shared-pool worker bound.
func TestMeasureTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	boxes := []int64{4096, 557, 2048, 31}
	var results []RunResult
	for _, workers := range []int{1, 2, 8} {
		engine.SetSharedWorkers(workers)
		src, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("square replay diverges across worker counts:\nworkers=1: %+v\nother:     %+v", results[0], results[i])
		}
	}
}

// TestMeasureTraceShortStreamStaysSerial: the square replay consumes the
// caller's source in order, once, whatever the pool offers — so a stateful
// FuncSource that cannot be forked gives the same result as the cycled
// slice it walks, even with idle workers.
func TestMeasureTraceShortStreamStaysSerial(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	engine.SetSharedWorkers(8)
	spec := regular.MMScanSpec
	n := profile.Pow(4, 4)
	boxes := []int64{64, 7}
	src, _ := profile.NewBoxesSource(boxes)
	want, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	fn := profile.FuncSource(func() int64 { b := boxes[i%len(boxes)]; i++; return b })
	got, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("FuncSource result %+v, cycled slice %+v", got, want)
	}
	if int64(i) != got.Boxes {
		t.Fatalf("replay drew %d boxes from the source for a %d-box ledger", i, got.Boxes)
	}
}

func TestMeasureTracePolicySquareRouting(t *testing.T) {
	// "square" (and "") must stream the synthetic trace into the square
	// semantics itself — identical results, not merely close ones.
	spec := regular.MMScanSpec
	n := int64(64)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := profile.NewSliceSource(wc)
	var ledger []paging.BoxStat
	q := paging.NewSquareStream(src, 0, func(s paging.BoxStat) { ledger = append(ledger, s) })
	if err := regular.EmitSynthetic(spec, n, q); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	want := sumLedger(spec, n, ledger)
	for _, name := range []string{"square", ""} {
		src2, _ := profile.NewSliceSource(wc)
		got, err := MeasureTracePolicy(spec, n, name, src2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("policy %q: %+v, SquareStream %+v", name, got, want)
		}
	}
}

func TestMeasureTracePolicyFullBoxes(t *testing.T) {
	// Boxes of exactly size n: the whole working set is fetched in the
	// first box and every policy — live kernel or clairvoyant — stays at
	// gap 1, like the square semantics.
	spec := regular.MMScanSpec
	n := int64(256)
	for _, name := range []string{"lru", "fifo", "arc", "2q", "opt"} {
		src, _ := profile.NewSliceSource(profile.MustNew([]int64{n}))
		res, err := MeasureTracePolicy(spec, n, name, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Gap()-1) > 1e-9 {
			t.Errorf("%s: gap = %g, want 1", name, res.Gap())
		}
		if res.Boxes != 1 {
			t.Errorf("%s: used %d boxes, want 1", name, res.Boxes)
		}
	}
}

// TestMeasureTracePolicyProgressIsLeafCount: every replay — live kernel,
// clairvoyant or square — runs the algorithm to completion, so the leaves
// credited across its boxes must equal the spec's leaf count.
func TestMeasureTracePolicyProgressIsLeafCount(t *testing.T) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 4)
	want := int64(spec.LeafCount(n))
	for _, name := range paging.ReplayNames() {
		src, err := profile.NewBoxesSource([]int64{64, 7, 16})
		if err != nil {
			t.Fatal(err)
		}
		res, err := MeasureTracePolicy(spec, n, name, src, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Progress != want {
			t.Errorf("%s: progress %d, want the %d leaves of the algorithm", name, res.Progress, want)
		}
	}
}

// TestMeasureTracePolicyBytesPerRef pins what a replay allocates per
// reference: the box ledger is folded as boxes close, so a kernel or
// square replay allocates only its O(n) state, and opt only its recording
// of the stream (an int32 block and an int32 next use per reference). The
// boxes are an i.i.d. draw from M_{8,4}(n/16)'s size distribution, drawn
// before the measurement.
func TestMeasureTracePolicyBytesPerRef(t *testing.T) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	dist, err := xrand.WorstCaseBoxDist(8, 4, n/16)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(xrand.Split(61, "bytes-per-ref", 0))
	boxes := make([]int64, 1<<14)
	for i := range boxes {
		boxes[i] = dist.Sample(rng)
	}
	refs := spec.IOCost(n)
	for _, name := range paging.ReplayNames() {
		src, err := profile.NewBoxesSource(boxes)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := MeasureTracePolicy(spec, n, name, src, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Boxes < 1000 {
			t.Fatalf("%s: only %d boxes; the draw no longer exercises box closing", name, res.Boxes)
		}
		limit := 1.0
		if name == paging.OPTReplayName {
			limit = 9
		}
		if perRef := float64(after.TotalAlloc-before.TotalAlloc) / refs; perRef >= limit {
			t.Errorf("%s: %.2f B/ref allocated over %d boxes, want under %g", name, perRef, res.Boxes, limit)
		}
	}
}

func TestMeasureTracePolicyUnknownName(t *testing.T) {
	src, _ := profile.NewSliceSource(profile.MustNew([]int64{8}))
	_, err := MeasureTracePolicy(regular.MMScanSpec, 64, "belady-crystal-ball", src, 0)
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, name := range []string{"lru", "fifo", "arc", "2q", "opt", "square"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list accepted name %q", err, name)
		}
	}
}

func TestGapOnDistBoundedAndFlat(t *testing.T) {
	// Theorem 1: i.i.d. boxes from any Σ ⇒ gap O(1) in expectation. Check
	// the measured mean gap stays in a modest band and does not grow with n.
	spec := regular.MMScanSpec
	dist, err := xrand.NewUniform(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Measure in the asymptotic regime (the gap has a small-n transient
	// while problems are not yet much larger than the boxes).
	var ks, means []float64
	for k := 4; k <= 7; k++ {
		n := profile.Pow(4, k)
		gaps, err := GapOnDist(engine.NewGroup(), spec, n, dist, 42, 12)
		if err != nil {
			t.Fatal(err)
		}
		s := stats.Summarize(gaps)
		if s.Mean > 12 {
			t.Errorf("n=4^%d: mean gap %g suspiciously large", k, s.Mean)
		}
		ks = append(ks, float64(k))
		means = append(means, s.Mean)
	}
	// The worst-case slope would be ~1 per level; adaptive-in-expectation
	// must be far below that.
	fit, err := stats.LinearFit(ks, means)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Beta > 0.3 {
		t.Errorf("gap grows with slope %g per level; expected ~0 (fit %v)", fit.Beta, fit)
	}
}

func TestGapOnDistValidation(t *testing.T) {
	dist, _ := xrand.NewUniform(1, 4)
	if _, err := GapOnDist(engine.NewGroup(), regular.MMScanSpec, 16, dist, 1, 0); err == nil {
		t.Error("0 trials accepted")
	}
}

func TestEstimateStoppingTimesPointMass(t *testing.T) {
	// Boxes always exactly n: f(n) = f'(n) = 1.
	spec := regular.MMScanSpec
	n := int64(64)
	dist, _ := xrand.NewUniform(n, n)
	st, err := EstimateStoppingTimes(engine.NewGroup(), spec, n, dist, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.F != 1 || st.FPrime != 1 {
		t.Errorf("f = %g, f' = %g, want 1, 1", st.F, st.FPrime)
	}
}

func TestEstimateStoppingTimesUnitBoxes(t *testing.T) {
	// Boxes always size 1: f(n) = T(n) exactly, f'(n) = T(n) - n.
	spec := regular.MMScanSpec
	n := int64(64)
	dist, _ := xrand.NewUniform(1, 1)
	st, err := EstimateStoppingTimes(engine.NewGroup(), spec, n, dist, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.IOCost(n); st.F != want {
		t.Errorf("f = %g, want %g", st.F, want)
	}
	if want := spec.IOCost(n) - float64(n); st.FPrime != want {
		t.Errorf("f' = %g, want %g", st.FPrime, want)
	}
}

func TestEstimateStoppingTimesOrdering(t *testing.T) {
	// f' <= f always (skipping the root scan can only help).
	spec := regular.MMScanSpec
	dist, _ := xrand.NewUniform(2, 100)
	st, err := EstimateStoppingTimes(engine.NewGroup(), spec, 256, dist, 11, 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.FPrime > st.F {
		t.Errorf("f' = %g > f = %g", st.FPrime, st.F)
	}
	if st.FSE <= 0 {
		t.Error("FSE not positive with random boxes")
	}
}

func TestCheckLemma3QEqualsP(t *testing.T) {
	// The lemma's headline identity: q = p = Pr[|□| >= n]·f(n/b).
	spec := regular.MMScanSpec
	n := int64(64)
	for _, dist := range []xrand.Dist{
		mustUniform(t, 8, 128),
		mustTwoPoint(t, 4, 256, 0.05),
	} {
		res, err := CheckLemma3(engine.NewGroup(), spec, n, dist, 99, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0 || res.P > 1.0001 {
			t.Errorf("%s: p = %g outside [0,1]", dist.Name(), res.P)
		}
		tol := 4*res.QSE + 0.02
		if math.Abs(res.Q-res.P) > tol {
			t.Errorf("%s: q = %g vs p = %g (tol %g)", dist.Name(), res.Q, res.P, tol)
		}
		// f'(n) must match the closed-form Σ (1-p)^{i-1} f(n/b) within a
		// few percent.
		relErr := math.Abs(res.SubBoxesMeasured-res.SubBoxesFormula) / res.SubBoxesFormula
		if relErr > 0.08 {
			t.Errorf("%s: f' measured %g vs formula %g (rel err %.3f)",
				dist.Name(), res.SubBoxesMeasured, res.SubBoxesFormula, relErr)
		}
	}
}

func TestCheckLemma3NoBigBoxes(t *testing.T) {
	// Distribution that can never produce a >= n box: p = q = 0 and the
	// subproblem formula degenerates to a·f(n/b).
	spec := regular.MMScanSpec
	n := int64(256)
	dist := mustUniform(t, 2, 16)
	res, err := CheckLemma3(engine.NewGroup(), spec, n, dist, 5, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 || res.Q != 0 {
		t.Errorf("p = %g, q = %g, want 0, 0", res.P, res.Q)
	}
	if want := float64(spec.A) * res.FChild; math.Abs(res.SubBoxesFormula-want) > 1e-9 {
		t.Errorf("formula %g, want a·f(n/b) = %g", res.SubBoxesFormula, want)
	}
}

// TestCheckLemma3DeterministicAcrossWorkers: the trials reuse one
// executor per engine worker, so at 4 workers each executor runs an
// arbitrary subset of the trials, Reset between them; the result must
// equal the serial run's in every field.
func TestCheckLemma3DeterministicAcrossWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	dist := mustUniform(t, 4, 512)
	run := func(workers int) Lemma3Result {
		engine.SetSharedWorkers(workers)
		res, err := CheckLemma3(engine.NewGroup(), regular.MMScanSpec, 256, dist, 17, 64)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("1 worker %+v\n4 workers %+v", serial, parallel)
	}
	if serial.Q == 0 || serial.Q == 1 {
		t.Errorf("q = %g: the check needs trials both with and without a >= n box", serial.Q)
	}
}

func TestCheckLemma3Validation(t *testing.T) {
	dist := mustUniform(t, 1, 8)
	if _, err := CheckLemma3(engine.NewGroup(), regular.MMInPlaceSpec, 64, dist, 1, 10); err == nil {
		t.Error("c != 1 accepted")
	}
	if _, err := CheckLemma3(engine.NewGroup(), regular.MMScanSpec, 3, dist, 1, 10); err == nil {
		t.Error("n < b accepted")
	}
	if _, err := CheckLemma3(engine.NewGroup(), regular.MMScanSpec, 64, dist, 1, 1); err == nil {
		t.Error("1 trial accepted")
	}
}

func TestCheckRecurrence(t *testing.T) {
	spec := regular.MMScanSpec
	dist := mustUniform(t, 4, 64)
	sizes := []int64{16, 64, 256, 1024, 4096}
	points, product, err := CheckRecurrence(engine.NewGroup(), spec, sizes, dist, 123, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sizes) {
		t.Fatalf("points = %d", len(points))
	}
	// Equation 8: the aggregate f/f' product is O(1).
	if product > 8 {
		t.Errorf("Π f/f' = %g, expected bounded by a small constant", product)
	}
	if product < 1 {
		t.Errorf("Π f/f' = %g < 1; f >= f' must force product >= 1", product)
	}
	// Equation 3's normalised stopping time f(n)·m_n/n^e must be O(1):
	// bounded at every size, and plateauing (not growing) once n is well
	// past the box sizes.
	for _, pt := range points {
		if pt.GapBound > 10 {
			t.Errorf("n=%d: f·m_n/n^e = %g too large", pt.N, pt.GapBound)
		}
	}
	last := points[len(points)-1]
	prev := points[len(points)-2]
	if last.GapBound > 1.4*prev.GapBound {
		t.Errorf("normalised stopping time still growing at the top: %g -> %g", prev.GapBound, last.GapBound)
	}
}

func TestCheckRecurrenceValidation(t *testing.T) {
	dist := mustUniform(t, 1, 8)
	if _, _, err := CheckRecurrence(engine.NewGroup(), regular.MMInPlaceSpec, []int64{16, 64}, dist, 1, 10, 4); err == nil {
		t.Error("c != 1 accepted")
	}
	if _, _, err := CheckRecurrence(engine.NewGroup(), regular.MMScanSpec, []int64{16, 256}, dist, 1, 10, 4); err == nil {
		t.Error("non-consecutive sizes accepted")
	}
	if _, _, err := CheckRecurrence(engine.NewGroup(), regular.MMScanSpec, []int64{48}, dist, 1, 10, 4); err == nil {
		t.Error("non-power size accepted")
	}
}

func mustUniform(t *testing.T, lo, hi int64) xrand.Dist {
	t.Helper()
	d, err := xrand.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustTwoPoint(t *testing.T, small, big int64, p float64) xrand.Dist {
	t.Helper()
	d, err := xrand.NewTwoPoint(small, big, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Parallel trials must be bit-deterministic in the seed: the same call
// twice yields identical per-trial results regardless of scheduling.
func TestGapOnDistDeterministicUnderParallelism(t *testing.T) {
	dist := mustUniform(t, 4, 64)
	a, err := GapOnDist(engine.NewGroup(), regular.MMScanSpec, 1024, dist, 77, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GapOnDist(engine.NewGroup(), regular.MMScanSpec, 1024, dist, 77, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across runs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestEstimateStoppingTimesDeterministicUnderParallelism(t *testing.T) {
	dist := mustUniform(t, 4, 64)
	a, err := EstimateStoppingTimes(engine.NewGroup(), regular.MMScanSpec, 1024, dist, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateStoppingTimes(engine.NewGroup(), regular.MMScanSpec, 1024, dist, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a.F != b.F || a.FPrime != b.FPrime || a.FSE != b.FSE {
		t.Fatalf("estimates differ across runs: %+v vs %+v", a, b)
	}
}

// Force the engine's worker-pool path (this machine may have GOMAXPROCS=1,
// where the shared pool recruits no helpers) and check that Monte-Carlo
// results do not depend on the worker count.
func TestTrialsDeterministicAcrossWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)

	engine.SetSharedWorkers(4)
	dist := mustUniform(t, 4, 64)
	parallelGaps, err := GapOnDist(engine.NewGroup(), regular.MMScanSpec, 256, dist, 123, 24)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetSharedWorkers(1)
	serialGaps, err := GapOnDist(engine.NewGroup(), regular.MMScanSpec, 256, dist, 123, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialGaps {
		if serialGaps[i] != parallelGaps[i] {
			t.Fatalf("trial %d: serial %g vs parallel %g", i, serialGaps[i], parallelGaps[i])
		}
	}
}

// The single-trial primitives must agree with their batched counterparts
// and be executor-reuse safe.
func TestGapSampleMatchesExecReuse(t *testing.T) {
	dist := mustUniform(t, 4, 64)
	e, err := regular.NewExec(regular.MMScanSpec, 256)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		seed := xrand.Split(99, "test", int64(trial))
		fresh, err := GapSample(regular.MMScanSpec, 256, dist, seed)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := GapSampleExec(e, dist, seed)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != reused {
			t.Fatalf("trial %d: fresh exec %g vs reused exec %g", trial, fresh, reused)
		}
	}
}

// OpGap — the footnote-4 operation reading — is exactly 1 for an a < b
// algorithm on its worst-case profile (every granted I/O is used) and
// bounded for a > b.
func TestOpGap(t *testing.T) {
	spec := regular.MustSpec(2, 4, 1)
	n := int64(256)
	wc, err := profile.WorstCase(2, 4, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GapOnProfile(spec, n, wc)
	if err != nil {
		t.Fatal(err)
	}
	if g := res.OpGap(); math.Abs(g-1) > 0.05 {
		t.Errorf("a<b op gap = %g, want ~1", g)
	}
}
