package adaptivity

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
)

// shardMinRefs is the stream length from which paging.Replay shards a
// square replay.
const shardMinRefs = 1 << 22

// TestMeasureTraceIdenticalAcrossWorkerCounts pins the square replay's
// determinism contract on a stream long enough to take the sharded path
// (T(n) >= shardMinRefs): the full RunResult — including the float
// accumulations — must be identical at every worker count.
func TestMeasureTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-reference stream")
	}
	defer engine.SetSharedWorkers(0)
	spec := regular.MMScanSpec
	n := profile.Pow(4, 8) // T(n) ~ 17M refs, past the parallel threshold
	if int64(spec.IOCost(n)) < shardMinRefs {
		t.Fatalf("test stream too short to exercise the parallel path")
	}
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

// TestMeasureTraceShortStreamStaysSerial checks the small-stream guard:
// under the threshold the result must equal the plain serial replay no
// matter how many workers are idle.
func TestMeasureTraceShortStreamStaysSerial(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	spec := regular.MMScanSpec
	n := profile.Pow(4, 4)
	boxes := []int64{64, 7}
	engine.SetSharedWorkers(1)
	src, _ := profile.NewBoxesSource(boxes)
	want, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetSharedWorkers(8)
	src, _ = profile.NewBoxesSource(boxes)
	got, err := MeasureTracePolicy(spec, n, paging.SquareReplayName, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("short-stream result depends on workers: %+v vs %+v", got, want)
	}
}
