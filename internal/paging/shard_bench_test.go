package paging

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/profile"
)

// Parallel-replay scaling benchmark: the sharded square replay at
// explicit worker counts, beside the serial replay at workers=1.
//
//	go test ./internal/paging -run=NONE -bench=ParallelWorkers
//
// On a 2-CPU machine the sharded run at workers=2 measured slower than the
// serial one, which is why no production replay shards.

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
