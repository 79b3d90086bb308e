package paging

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Parallel-replay scaling benchmarks: the E9-class repeated worst-case
// replay at explicit worker counts.
//
//	go test ./internal/paging -run=NONE -bench=ParallelWorkers
//
// On a multi-core box the ops/sec curve is the speedup evidence recorded
// in BENCH_pr6.json; on a single-core box the sub-benchmarks mostly
// measure the sharding overhead (plan pass + goroutine scheduling), which
// is the honest number to watch there.

func BenchmarkServedEmitRepeatParallelWorkers(b *testing.B) {
	const dim, bw, reps = 256, 8, 12
	boxSrc, nBoxes, _, err := matrix.WorstCaseBoxStream(dim, bw)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) }
	c := &trace.CountingSink{}
	if err := emit(c); err != nil {
		b.Fatal(err)
	}
	defer engine.SetSharedWorkers(0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine.SetSharedWorkers(workers)
			shards := DefaultShards()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ServedEmitRepeatParallel(emit, c.Refs, c.MaxBlock,
					boxSrc, nBoxes, reps, c.MaxBlock+1, shards); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Refs*int64(reps)*int64(b.N))/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

func BenchmarkSquareEmitParallelWorkers(b *testing.B) {
	tr := benchTrace(b)
	boxes := []int64{64, 7, 128, 31}
	defer engine.SetSharedWorkers(0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine.SetSharedWorkers(workers)
			shards := DefaultShards()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := profile.NewBoxesSource(boxes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := SquareEmitParallel(tr.Emit, int64(tr.Len()), tr.MaxBlock(), src, 0, shards); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
