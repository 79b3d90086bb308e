package paging

import (
	"runtime"
	"testing"

	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
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
				q := NewPolicyStream(p, src, 0)
				q.Reserve(tr.MaxBlock())
				trace.Replay(tr, q)
				if _, err := q.Finish(); err != nil {
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
		q := NewSquareStream(src, 0)
		q.Reserve(tr.MaxBlock())
		trace.Replay(tr, q)
		if _, err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	})
}
