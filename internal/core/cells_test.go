package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/xrand"
)

// TestSweepVisitsEveryCellOnce checks sweep's grid: every (r, k, trial)
// with trial < trials(k) runs exactly once, on a worker's scratch state,
// and its value lands at out[r][k-kMin][trial].
func TestSweepVisitsEveryCellOnce(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	engine.SetSharedWorkers(4)
	const rows, kMin, kMax = 3, 2, 5
	trials := func(k int) int { return k - 1 } // 1, 2, 3, 4 trials
	coord := func(r, k, trial int) float64 { return float64(r*10000 + k*100 + trial) }

	var mu sync.Mutex
	visits := map[[3]int]int{}
	g := engine.NewGroup()
	out, err := sweep(g, rows, kMin, kMax, trials, func(ws *workerState, r, k, trial int) (float64, error) {
		if ws == nil {
			return 0, fmt.Errorf("cell (%d,%d,%d) got no worker state", r, k, trial)
		}
		mu.Lock()
		visits[[3]int{r, k, trial}]++
		mu.Unlock()
		return coord(r, k, trial), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := 0
	if len(out) != rows {
		t.Fatalf("len(out) = %d, want %d rows", len(out), rows)
	}
	for r := range out {
		if len(out[r]) != kMax-kMin+1 {
			t.Fatalf("row %d has %d levels, want %d", r, len(out[r]), kMax-kMin+1)
		}
		for k := kMin; k <= kMax; k++ {
			got := out[r][k-kMin]
			if len(got) != trials(k) {
				t.Errorf("out[%d][k=%d] has %d trials, want %d", r, k, len(got), trials(k))
				continue
			}
			for trial, v := range got {
				want++
				if v != coord(r, k, trial) {
					t.Errorf("out[%d][k=%d][%d] = %v, want %v", r, k, trial, v, coord(r, k, trial))
				}
				if n := visits[[3]int{r, k, trial}]; n != 1 {
					t.Errorf("cell (%d,%d,%d) ran %d times, want 1", r, k, trial, n)
				}
			}
		}
	}
	if len(visits) != want || g.Cells() != int64(want) {
		t.Errorf("%d distinct cells visited, %d executed, want %d", len(visits), g.Cells(), want)
	}
}

// TestSweepReturnsLowestIndexedError checks that a failing grid reports
// the first failing cell in row-major order and no results.
func TestSweepReturnsLowestIndexedError(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	engine.SetSharedWorkers(4)
	errEarly, errLate := errors.New("early cell"), errors.New("late cell")
	out, err := sweep(engine.NewGroup(), 3, 3, 5, func(int) int { return 4 },
		func(_ *workerState, r, k, trial int) (float64, error) {
			switch {
			case r == 2 && k == 3 && trial == 0:
				return 0, errLate
			case r == 1 && k == 4 && trial == 2:
				return 0, errEarly
			}
			return 1, nil
		})
	if !errors.Is(err, errEarly) {
		t.Fatalf("sweep error = %v, want the row-major first failure %v", err, errEarly)
	}
	if out != nil {
		t.Errorf("failed sweep returned results %v", out)
	}
}

// TestSweepDeterministicAcrossWorkers runs real symbolic-executor cells,
// which reuse per-worker executors, at 1 and 4 workers: the grids must be
// identical.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	uni, err := xrand.NewUniform(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [][][]float64 {
		engine.SetSharedWorkers(workers)
		out, err := sweep(engine.NewGroup(), 2, 2, 4, func(k int) int { return 2 + k },
			func(ws *workerState, r, k, trial int) (float64, error) {
				e, err := ws.exec(regular.MMScanSpec, profile.Pow(4, k))
				if err != nil {
					return 0, err
				}
				seed := xrand.Split(11, "sweep", int64(r), int64(k), int64(trial))
				return adaptivity.GapSampleExec(e, uni, seed)
			})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return out
	}
	if serial, parallel := run(1), run(4); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("sweep grids differ between 1 and 4 workers:\n%v\n%v", serial, parallel)
	}
}

// errAfterFirst is a context that is live for the first Err call (the
// runner's dead-on-arrival check) and cancelled from then on, so it
// cancels a run exactly when the run's own fan-out first looks.
type errAfterFirst struct {
	context.Context
	calls atomic.Int32
}

func (c *errAfterFirst) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestE10HonoursCancellation checks that E10's trial fan-out runs under
// the run's context, and that a normal run reports its Trials·100 cells.
func TestE10HonoursCancellation(t *testing.T) {
	checkHonoursCancellation(t, "E10", int64(testConfig().Trials*100))
}

// checkHonoursCancellation runs id under a context cancelled just after the
// runner's first check, which must fail the run with context.Canceled, and
// then normally, which must report wantCells engine cells.
func checkHonoursCancellation(t *testing.T, id string, wantCells int64) {
	t.Helper()
	cfg := testConfig()
	ctx := &errAfterFirst{Context: context.Background()}
	if tb, err := RunContext(ctx, id, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("%s under a context cancelled mid-run returned (%v, %v), want context.Canceled", id, tb, err)
	}
	tb, err := Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Metrics.Cells != wantCells {
		t.Errorf("%s Metrics.Cells = %d, want %d", id, tb.Metrics.Cells, wantCells)
	}
}

// TestE4HonoursCancellation: E4's nine Lemma-3 checks each fan out
// Trials·150 trials of f(n/4) and as many of f(n) and f'(n).
func TestE4HonoursCancellation(t *testing.T) {
	checkHonoursCancellation(t, "E4", int64(9*2*testConfig().Trials*150))
}

// TestE5HonoursCancellation: E5 estimates f and f' at n = 4^2..4^MaxK,
// Trials·10 trials each.
func TestE5HonoursCancellation(t *testing.T) {
	cfg := testConfig()
	checkHonoursCancellation(t, "E5", int64((cfg.MaxK-1)*cfg.Trials*10))
}

// TestA5HonoursCancellation: A5 runs Trials i.i.d. trials at each of its
// ten sweep points (k = 4, 6, ..., 16 for b = 2 and k = 4, 6, 8 for b = 4
// when MaxK <= 8).
func TestA5HonoursCancellation(t *testing.T) {
	checkHonoursCancellation(t, "A5", int64(10*testConfig().Trials))
}
