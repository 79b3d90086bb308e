package repro_test

// The benchmark harness: one benchmark per experiment (each regenerates the
// corresponding paper claim at a bench-sized configuration and reports its
// headline metric), plus micro-benchmarks of the hot kernels (the symbolic
// executor, the square cache, profile construction, and the real
// algorithms).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report custom metrics (gap, slope, multiplies) via
// b.ReportMetric, so the paper's shapes are visible straight from the
// benchmark output.

import (
	"strconv"
	"testing"

	"repro/internal/adaptivity"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/gep"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/sorting"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// benchConfig keeps the per-iteration cost of experiment benches moderate.
func benchConfig() core.Config {
	return core.Config{Seed: 20200715, Trials: 6, MaxK: 5}
}

// runExperiment runs one experiment per iteration and reports a metric
// extracted from its table.
func runExperiment(b *testing.B, id string, metric func(*core.Table) (string, float64)) {
	b.Helper()
	var last *core.Table
	for i := 0; i < b.N; i++ {
		t, err := core.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

func lastRowFloat(t *core.Table, col int) float64 {
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		return -1
	}
	return v
}

// --- One benchmark per experiment (see DESIGN.md's experiment index) -------

func BenchmarkE1WorstCaseProfile(b *testing.B) {
	runExperiment(b, "E1", func(t *core.Table) (string, float64) {
		return "pot/n^1.5(max-k)", lastRowFloat(t, 5)
	})
}

func BenchmarkE2WorstCaseGap(b *testing.B) {
	runExperiment(b, "E2", func(t *core.Table) (string, float64) {
		return "rows", float64(len(t.Rows))
	})
}

func BenchmarkE3IIDSmoothing(b *testing.B) {
	runExperiment(b, "E3", func(t *core.Table) (string, float64) {
		return "gap(last)", lastRowFloat(t, 3)
	})
}

func BenchmarkE4Lemma3(b *testing.B) {
	runExperiment(b, "E4", func(t *core.Table) (string, float64) {
		// |q - p| on the last row.
		p := lastRowFloat(t, 3)
		q := lastRowFloat(t, 4)
		d := p - q
		if d < 0 {
			d = -d
		}
		return "|q-p|(last)", d
	})
}

func BenchmarkE5Recurrence(b *testing.B) {
	runExperiment(b, "E5", func(t *core.Table) (string, float64) {
		return "f·m_n/n^1.5(last)", lastRowFloat(t, 7)
	})
}

func BenchmarkE6SizePerturb(b *testing.B) {
	runExperiment(b, "E6", func(t *core.Table) (string, float64) {
		return "gap(last)", lastRowFloat(t, 3)
	})
}

func BenchmarkE7StartShift(b *testing.B) {
	runExperiment(b, "E7", func(t *core.Table) (string, float64) {
		return "gap(last)", lastRowFloat(t, 2)
	})
}

func BenchmarkE8OrderPerturb(b *testing.B) {
	runExperiment(b, "E8", func(t *core.Table) (string, float64) {
		return "aligned-gap(last)", lastRowFloat(t, 3)
	})
}

func BenchmarkE9ScanVsInPlace(b *testing.B) {
	runExperiment(b, "E9", func(t *core.Table) (string, float64) {
		return "inplace-multiplies(last)", lastRowFloat(t, 5)
	})
}

func BenchmarkE10NoCatchup(b *testing.B) {
	runExperiment(b, "E10", func(t *core.Table) (string, float64) {
		return "violations", lastRowFloat(t, 1)
	})
}

func BenchmarkE11DAMComplexity(b *testing.B) {
	runExperiment(b, "E11", func(t *core.Table) (string, float64) {
		return "LRU/OPT(last)", lastRowFloat(t, 3)
	})
}

func BenchmarkE12PolicyGap(b *testing.B) {
	runExperiment(b, "E12", func(t *core.Table) (string, float64) {
		// Last row is the square replay at max k: worst-case gap = k+1.
		return "square-wc-gap(last)", lastRowFloat(t, 3)
	})
}

func BenchmarkE13Smoothness(b *testing.B) {
	runExperiment(b, "E13", func(t *core.Table) (string, float64) {
		return "faults(last)", lastRowFloat(t, 3)
	})
}

// --- Kernel micro-benchmarks -------------------------------------------------

// BenchmarkExecStep measures the symbolic executor's per-box cost on a
// large problem with mixed box sizes.
func BenchmarkExecStep(b *testing.B) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 9)
	e, err := regular.NewExec(spec, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Done() {
			b.StopTimer()
			e.Reset()
			b.StartTimer()
		}
		e.Step(1 + rng.Int63n(256))
	}
}

// BenchmarkExecWorstCaseRun measures a full symbolic run of the canonical
// algorithm over M_{8,4}(4^6) — the E2 kernel.
func BenchmarkExecWorstCaseRun(b *testing.B) {
	n := profile.Pow(4, 6)
	wc, err := profile.WorstCase(8, 4, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := adaptivity.GapOnProfile(regular.MMScanSpec, n, wc)
		if err != nil {
			b.Fatal(err)
		}
		if g := res.Gap(); g < 6.999 || g > 7.001 {
			b.Fatalf("unexpected gap %v", g)
		}
	}
	b.ReportMetric(float64(wc.Len()), "boxes/run")
}

// BenchmarkSquareReplay measures trace replay throughput through the
// square-semantics cache.
func BenchmarkSquareReplay(b *testing.B) {
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSquareStreamEmit measures the full streaming pipeline: the
// synthetic generator emitting straight into the square cache through the
// trace.Sink interface, with no materialized trace anywhere. Compare with
// BenchmarkSquareReplay (materialize-then-replay) — the per-access kernel
// cost is the same, the Θ(T(n)) trace buffer is gone.
//
// The old-vs-new kernel comparisons (array-backed LRU/FIFO/OPT against the
// preserved map-backed oracles) live in internal/paging/bench_test.go,
// where the oracles are visible.
func BenchmarkSquareStreamEmit(b *testing.B) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 5)
	c := &trace.CountingSink{}
	if err := regular.EmitSynthetic(spec, n, c); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(c.Refs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
		if err != nil {
			b.Fatal(err)
		}
		q := paging.NewSquareStream(src, 0, func(paging.BoxStat) {})
		q.Reserve(n - 1)
		if err := regular.EmitSynthetic(spec, n, q); err != nil {
			b.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(c.Refs)), "ns/access")
}

// BenchmarkLRUStreamEmit measures the generator→LRU streaming path used by
// lruSink streams references straight into an LRU kernel (leaf markers
// are ignored: a fixed-capacity replay measures misses, not progress).
type lruSink struct{ l *paging.LRU }

func (s lruSink) Access(block int64) { s.l.Access(block) }

func (s lruSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		s.l.Access(lo + i)
	}
}

func (s lruSink) EndLeaf() {}

// Emission and a bare LRU replay fused, no trace buffer.
func BenchmarkLRUStreamEmit(b *testing.B) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 5)
	c := &trace.CountingSink{}
	if err := regular.EmitSynthetic(spec, n, c); err != nil {
		b.Fatal(err)
	}
	l, err := paging.NewLRU(128)
	if err != nil {
		b.Fatal(err)
	}
	l.Reserve(c.MaxBlock)
	b.SetBytes(c.Refs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Clear()
		if err := regular.EmitSynthetic(spec, n, lruSink{l}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(c.Refs)), "ns/access")
}

// BenchmarkLRU measures the dynamic-capacity LRU on a synthetic trace.
func BenchmarkLRU(b *testing.B) {
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paging.RunPolicyFixed("lru", tr, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorstCaseConstruction measures building M_{8,4}(4^6) (~300k
// boxes).
func BenchmarkWorstCaseConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.WorstCase(8, 4, profile.Pow(4, 6)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffle measures the Fisher–Yates shuffle of a 300k-box profile.
func BenchmarkShuffle(b *testing.B) {
	wc, err := profile.WorstCase(8, 4, profile.Pow(4, 6))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smoothing.Shuffle(wc, rng)
	}
}

// BenchmarkMulScan measures the real MM-Scan multiply (128×128).
func BenchmarkMulScan(b *testing.B) {
	src := xrand.New(3)
	x, err := matrix.NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	y, err := matrix.NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.MulScan(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulInPlace measures the real MM-InPlace multiply (128×128).
func BenchmarkMulInPlace(b *testing.B) {
	src := xrand.New(3)
	x, err := matrix.NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	y, err := matrix.NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.MulInPlace(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoppingTimeEstimate measures one f(n) Monte-Carlo estimate —
// the E4/E5 kernel.
func BenchmarkStoppingTimeEstimate(b *testing.B) {
	dist, err := xrand.NewUniform(4, 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st, err := adaptivity.EstimateStoppingTimes(engine.NewGroup(), regular.MMScanSpec, 1024, dist, uint64(i), 8)
		if err != nil {
			b.Fatal(err)
		}
		if st.F <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

// BenchmarkGapOnDist measures a full Theorem-1 trial at n = 4^6.
func BenchmarkGapOnDist(b *testing.B) {
	dist, err := xrand.NewUniform(4, 64)
	if err != nil {
		b.Fatal(err)
	}
	var lastMean float64
	for i := 0; i < b.N; i++ {
		gaps, err := adaptivity.GapOnDist(engine.NewGroup(), regular.MMScanSpec, profile.Pow(4, 6), dist, uint64(i), 3)
		if err != nil {
			b.Fatal(err)
		}
		lastMean = stats.Summarize(gaps).Mean
	}
	b.ReportMetric(lastMean, "gap")
}

// --- Substrate micro-benchmarks ----------------------------------------------

// BenchmarkFloydWarshallRec measures the real in-place I-GEP recursion
// (128 vertices).
func BenchmarkFloydWarshallRec(b *testing.B) {
	src := xrand.New(4)
	g, err := gep.NewRandomGraph(128, 0.3, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := g.Clone()
		if err := gep.FloydWarshallRec(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLCSRecursive measures the boundary-passing quadrant LCS on
// 512-character strings.
func BenchmarkLCSRecursive(b *testing.B) {
	src := xrand.New(6)
	mk := func() string {
		buf := make([]byte, 512)
		for i := range buf {
			buf[i] = byte('a' + src.Intn(4))
		}
		return string(buf)
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.LCSLengthRecursive(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeSort measures the real two-way merge sort on 64k values.
func BenchmarkMergeSort(b *testing.B) {
	src := xrand.New(8)
	in := sorting.RandomSlice(1<<16, 1<<30, src)
	b.SetBytes(int64(len(in) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sorting.MergeSort(in)
	}
}

// BenchmarkFIFO measures the dynamic-capacity FIFO on a synthetic trace.
func BenchmarkFIFO(b *testing.B) {
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paging.RunPolicyFixed("fifo", tr, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPT measures Belady OPT on the same trace.
func BenchmarkOPT(b *testing.B) {
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paging.RunPolicyFixed(paging.OPTReplayName, tr, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceStrassen measures materializing the Strassen trace (dim
// 128).
func BenchmarkTraceStrassen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulStrassen(128, 8, s) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecSpreadScans measures the spread-scan executor on the
// tailored adversary workload shape (unit through mixed boxes).
func BenchmarkExecSpreadScans(b *testing.B) {
	n := profile.Pow(4, 6)
	rng := xrand.New(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := regular.NewExec(regular.MMScanSpec, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.SetSpreadScans(true); err != nil {
			b.Fatal(err)
		}
		for !e.Done() {
			e.Step(1 + rng.Int63n(512))
		}
	}
}

// BenchmarkEngineMap measures the engine's per-cell dispatch overhead on
// no-op cells — the fixed cost every Monte-Carlo fan-out pays.
func BenchmarkEngineMap(b *testing.B) {
	b.ReportAllocs()
	g := engine.NewGroup()
	for i := 0; i < b.N; i++ {
		if err := g.Map(256, func(_, _ int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGapSampleFresh allocates a new executor per trial — the cost the
// engine's per-worker executor cache avoids.
func BenchmarkGapSampleFresh(b *testing.B) {
	b.ReportAllocs()
	n := profile.Pow(4, 5)
	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := regular.NewExec(regular.MMScanSpec, n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adaptivity.GapSampleExec(e, uni, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGapSampleReused resets and reuses one executor across trials —
// the engine worker's steady state.
func BenchmarkGapSampleReused(b *testing.B) {
	b.ReportAllocs()
	n := profile.Pow(4, 5)
	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		b.Fatal(err)
	}
	e, err := regular.NewExec(regular.MMScanSpec, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adaptivity.GapSampleExec(e, uni, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleTo is BenchmarkShuffle without the per-trial profile
// clone: shuffle into a reused buffer.
func BenchmarkShuffleTo(b *testing.B) {
	wc, err := profile.WorstCase(8, 4, profile.Pow(4, 6))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	var buf []int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = smoothing.ShuffleTo(buf, wc, rng)
	}
}
