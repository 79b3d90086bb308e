package paging

import (
	"runtime"
	"testing"

	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Replay micro-benchmarks: the array-backed kernels against the map-backed
// oracles they replaced (preserved in oracle_test.go). Each benchmark
// replays the same canonical (8,4,1) trace and reports per-access cost so
// the two are directly comparable:
//
//	go test ./internal/paging -run=NONE -bench=Replay -benchmem
//
// ns/access and B/access come from b.ReportMetric; B/access counts heap
// bytes allocated during the timed region (the kernels' steady state is
// zero, pinned separately by alloc_test.go).

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := regular.SyntheticTrace(regular.MMScanSpec, profile.Pow(4, 5))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// perAccess times run() b.N times over a tr.Len()-reference trace and
// reports ns/access and heap B/access.
func perAccess(b *testing.B, refs int, run func()) {
	b.Helper()
	b.ReportAllocs()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	accesses := float64(b.N) * float64(refs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/accesses, "B/access")
}

const benchCapacity = 128

func BenchmarkLRUReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	l, err := NewLRU(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	l.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		l.Clear()
		for i := 0; i < n; i++ {
			l.Access(tr.Block(i))
		}
	})
}

func BenchmarkLRUReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleLRU(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func BenchmarkFIFOReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	f, err := NewFIFO(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	f.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		f.Clear()
		for i := 0; i < n; i++ {
			f.Access(tr.Block(i))
		}
	})
}

func BenchmarkFIFOReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleFIFO(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func BenchmarkOPTReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		if _, err := RunPolicyFixed(OPTReplayName, tr, benchCapacity); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkOPTReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		runOracleOPT(tr, benchCapacity)
	})
}

func BenchmarkARCReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	a, err := NewARC(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	a.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		a.Clear()
		for i := 0; i < n; i++ {
			a.Access(tr.Block(i))
		}
	})
}

func BenchmarkARCReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracleARC(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

func Benchmark2QReplayKernel(b *testing.B) {
	tr := benchTrace(b)
	q, err := NewTwoQ(benchCapacity)
	if err != nil {
		b.Fatal(err)
	}
	q.Reserve(tr.MaxBlock())
	n := tr.Len()
	perAccess(b, n, func() {
		q.Clear()
		for i := 0; i < n; i++ {
			q.Access(tr.Block(i))
		}
	})
}

func Benchmark2QReplayOracle(b *testing.B) {
	tr := benchTrace(b)
	o := newOracle2Q(benchCapacity)
	n := tr.Len()
	perAccess(b, n, func() {
		o.Clear()
		for i := 0; i < n; i++ {
			o.Access(tr.Block(i))
		}
	})
}

// BenchmarkPolicyStreamReplay measures the live-kernel box replay fed
// through the Sink interface, per registered policy — the path
// MeasureTracePolicy and E12 take.
func BenchmarkPolicyStreamReplay(b *testing.B) {
	tr := benchTrace(b)
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			perAccess(b, tr.Len(), func() {
				p, err := NewReplacementPolicy(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
				if err != nil {
					b.Fatal(err)
				}
				q := NewPolicyStream(p, src, 0, discardBoxes)
				q.Reserve(tr.MaxBlock())
				trace.Replay(tr, q)
				if err := q.Finish(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkSquareStreamReplay measures the streaming square cache fed
// through the Sink interface — the path every experiment now takes.
func BenchmarkSquareStreamReplay(b *testing.B) {
	tr := benchTrace(b)
	perAccess(b, tr.Len(), func() {
		src, err := profile.NewSliceSource(profile.MustNew([]int64{64}))
		if err != nil {
			b.Fatal(err)
		}
		q := NewSquareStream(src, 0, discardBoxes)
		q.Reserve(tr.MaxBlock())
		trace.Replay(tr, q)
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	})
}

// smallBoxReplay benchmarks one replay name end to end through Replay, the
// path MeasureTracePolicy takes: the canonical (8,4,1) generator at n = 4^6
// emitting into the replay, under box sizes drawn i.i.d. from
// M_{8,4}(n/16)'s size distribution. The boxes are small against the
// trace, so about one reference in four closes a box, and the per-box
// costs (ledger, potential) weigh as much as the kernel's.
func smallBoxReplay(b *testing.B, name string) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	dist, err := xrand.WorstCaseBoxDist(8, 4, n/16)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(xrand.Split(62, "bench-small-boxes", 0))
	boxes := make([]int64, 1<<14)
	for i := range boxes {
		boxes[i] = dist.Sample(rng)
	}
	emit := func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) }
	refs := int64(spec.IOCost(n))
	perAccess(b, int(refs), func() {
		src, err := profile.NewBoxesSource(boxes)
		if err != nil {
			b.Fatal(err)
		}
		var leaves int64
		if err := Replay(name, emit, refs, n-1, src, 0, func(s BoxStat) { leaves += s.Leaves }); err != nil {
			b.Fatal(err)
		}
		if leaves != int64(spec.LeafCount(n)) {
			b.Fatalf("%s credited %d leaves, want %d", name, leaves, int64(spec.LeafCount(n)))
		}
	})
}

// BenchmarkOPTBoxReplay measures the opt box replay: recording the stream
// with its next-use index, then Belady's choice under the small boxes.
func BenchmarkOPTBoxReplay(b *testing.B) { smallBoxReplay(b, OPTReplayName) }

// BenchmarkPolicyStreamSmallBoxes measures each live kernel's box replay,
// and the square replay, under the small boxes.
func BenchmarkPolicyStreamSmallBoxes(b *testing.B) {
	for _, name := range append(PolicyNames(), SquareReplayName) {
		b.Run(name, func(b *testing.B) { smallBoxReplay(b, name) })
	}
}

// Fault curves, side by side: the one-pass stack curve against the sweep
// of fixed-capacity replays it replaced, over E13's dim-128 MM-Scan trace
// and E13's capacity range. One op is one whole curve.
//
//	go test ./internal/paging -run=NONE -bench='FaultCurve|FixedSweep' -cpu=1,2

const (
	curveSweepLo = int64(8)
	curveSweepHi = int64(136)
)

func BenchmarkFaultCurve(b *testing.B) {
	tr := e13Trace(b, 128)
	rec, err := RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lru", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LRUCurve(tr, curveSweepHi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rec.Curve(curveSweepHi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFixedSweep times one replay per capacity over E13's sweep. The
// fifo, arc and 2q sub-benchmarks are the per-capacity replays E13 runs
// (it takes lru's and opt's curves from one stack pass); lru and opt are
// the sweeps BenchmarkFaultCurve's one-pass curves replace. ns/access is
// per reference replayed, over every capacity of the sweep.
func BenchmarkFixedSweep(b *testing.B) {
	tr := e13Trace(b, 128)
	rec, err := RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		b.Fatal(err)
	}
	sweepRefs := tr.Len() * int(curveSweepHi-curveSweepLo+1)
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			perAccess(b, sweepRefs, func() {
				for c := curveSweepLo; c <= curveSweepHi; c++ {
					if _, err := RunPolicyFixed(name, tr, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	b.Run("opt", func(b *testing.B) {
		perAccess(b, sweepRefs, func() {
			for c := curveSweepLo; c <= curveSweepHi; c++ {
				if _, err := rec.Fixed(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
