package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapCoversEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		g := New(workers).Group()
		const n = 1000
		hits := make([]int32, n)
		err := g.Map(n, func(cell, worker int) error {
			if worker < 0 || worker >= workers {
				return fmt.Errorf("worker %d out of [0,%d)", worker, workers)
			}
			atomic.AddInt32(&hits[cell], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: cell %d executed %d times", workers, i, h)
			}
		}
		if g.Cells() != n {
			t.Errorf("workers=%d: Cells() = %d, want %d", workers, g.Cells(), n)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		g := New(workers).Group()
		out := make([]int, 500)
		if err := g.Map(len(out), func(cell, _ int) error {
			out[cell] = cell*cell + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4, 16} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, got[i], base[i])
			}
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	g := New(4).Group()
	sentinel3 := errors.New("cell 3")
	sentinel7 := errors.New("cell 7")
	err := g.Map(16, func(cell, _ int) error {
		switch cell {
		case 3:
			return sentinel3
		case 7:
			return sentinel7
		}
		return nil
	})
	if !errors.Is(err, sentinel3) {
		t.Fatalf("got %v, want the lowest-indexed error", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := New(workers).Group()
	var cur, peak atomic.Int64
	err := g.Map(200, func(cell, _ int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent cells, bound is %d", p, workers)
	}
}

// TestNestedMapDoesNotDeadlock exercises the saturation path: outer cells
// hold every pool token while each runs an inner Map on the same pool.
func TestNestedMapDoesNotDeadlock(t *testing.T) {
	p := New(4)
	outer := p.Group()
	var total atomic.Int64
	err := outer.Map(8, func(cell, _ int) error {
		inner := p.Group()
		return inner.Map(50, func(c, _ int) error {
			total.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 8*50 {
		t.Fatalf("inner cells executed %d times, want %d", total.Load(), 8*50)
	}
}

func TestSharedPoolResize(t *testing.T) {
	SetSharedWorkers(2)
	if w := Shared().Workers(); w != 2 {
		t.Fatalf("shared workers = %d, want 2", w)
	}
	SetSharedWorkers(0) // back to GOMAXPROCS
	if w := Shared().Workers(); w < 1 {
		t.Fatalf("shared workers = %d, want >= 1", w)
	}
}

func TestGroupBusyAccounting(t *testing.T) {
	g := New(2).Group()
	if err := g.Map(10, func(cell, _ int) error {
		s := 0
		for i := 0; i < 10000; i++ {
			s += i
		}
		_ = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if g.Busy() <= 0 {
		t.Error("Busy() did not accumulate")
	}
}

func TestMapContextCancelStopsClaimingCells(t *testing.T) {
	g := New(2).Group()
	ctx, cancel := context.WithCancel(context.Background())
	g.WithContext(ctx)
	const n = 10000
	var ran atomic.Int64
	err := g.Map(n, func(cell, _ int) error {
		if ran.Add(1) == 5 {
			cancel() // cancel mid-run: later cells must never start
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Errorf("all %d cells ran despite cancellation", got)
	}
}

func TestMapContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(4).Group().WithContext(ctx)
	var ran atomic.Int64
	err := g.Map(100, func(cell, _ int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map returned %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d cells ran under an already-cancelled context", ran.Load())
	}
}

func TestMapCellErrorWinsOverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(1).Group().WithContext(ctx)
	boom := errors.New("boom")
	err := g.Map(10, func(cell, _ int) error {
		if cell == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Map returned %v, want the cell error", err)
	}
}

// idleTokens reports how many pool tokens are free right now. All workers
// being parked is the pool's quiescent state: workers-1 free tokens.
func idleTokens(p *Pool) int { return len(p.tokens) }

// TestMapPanicBecomesCellIndexedError: a panic inside a cell surfaces as a
// *PanicError carrying the cell index and a stack, not a process crash,
// and the other cells still run.
func TestMapPanicBecomesCellIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		g := p.Group()
		var ran atomic.Int64
		err := g.Map(32, func(cell, _ int) error {
			if cell == 5 {
				panic(fmt.Sprintf("boom in cell %d", cell))
			}
			ran.Add(1)
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Map returned %T (%v), want *PanicError", workers, err, err)
		}
		if pe.Cell != 5 {
			t.Errorf("workers=%d: PanicError.Cell = %d, want 5", workers, pe.Cell)
		}
		if got, ok := pe.Value.(string); !ok || got != "boom in cell 5" {
			t.Errorf("workers=%d: PanicError.Value = %v, want the panic value", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "boom in cell 5") {
			t.Errorf("workers=%d: PanicError carries no stack/context: %q", workers, pe.Error())
		}
		if ran.Load() != 31 {
			t.Errorf("workers=%d: %d cells ran, want 31 (panic must not stop the claim loop)", workers, ran.Load())
		}
		if free := idleTokens(p); free != workers-1 {
			t.Errorf("workers=%d: %d free tokens after panic, want %d", workers, free, workers-1)
		}
	}
}

// TestMapPanicLowestIndexedWins: error-vs-panic ordering follows cell
// index, like error-vs-error.
func TestMapPanicLowestIndexedWins(t *testing.T) {
	g := New(4).Group()
	sentinel := errors.New("cell 9")
	err := g.Map(16, func(cell, _ int) error {
		switch cell {
		case 2:
			panic("cell 2")
		case 9:
			return sentinel
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Cell != 2 {
		t.Fatalf("Map returned %v, want the cell-2 PanicError", err)
	}
}

// TestMapPoolUsableAfterPanicStorm: every cell of a Map panics across
// recruited workers and the caller; afterwards the same pool must still
// recruit to full parallelism and complete a clean Map.
func TestMapPoolUsableAfterPanicStorm(t *testing.T) {
	const workers = 4
	p := New(workers)
	g := p.Group()
	err := g.Map(64, func(cell, _ int) error { panic(cell) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Map returned %v, want a PanicError", err)
	}
	if free := idleTokens(p); free != workers-1 {
		t.Fatalf("%d free tokens after the storm, want %d", free, workers-1)
	}

	// The pool must still complete a clean Map, covering every cell once.
	g2 := p.Group()
	hits := make([]int32, 64)
	if err := g2.Map(len(hits), func(cell, _ int) error {
		atomic.AddInt32(&hits[cell], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("cell %d executed %d times after the storm", i, h)
		}
	}
	if free := idleTokens(p); free != workers-1 {
		t.Errorf("%d free tokens after the clean Map, want %d", free, workers-1)
	}
}

// TestMapTokenRestitutionAfterWorkerError: cell errors on every worker
// must not leak pool tokens (the satellite invariant the chaos suite
// leans on).
func TestMapTokenRestitutionAfterWorkerError(t *testing.T) {
	const workers = 5
	p := New(workers)
	boom := errors.New("boom")
	for round := 0; round < 3; round++ {
		err := p.Group().Map(40, func(cell, _ int) error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("round %d: Map returned %v, want boom", round, err)
		}
		if free := idleTokens(p); free != workers-1 {
			t.Fatalf("round %d: %d free tokens, want %d", round, free, workers-1)
		}
	}
}

// TestMapCancelledQueuedCellsNeverStart pins the mid-claim cancellation
// contract: with every worker parked inside a cell, cancelling the context
// means the queued cells behind them are never claimed.
func TestMapCancelledQueuedCellsNeverStart(t *testing.T) {
	const workers = 2
	g := New(workers).Group()
	ctx, cancel := context.WithCancel(context.Background())
	g.WithContext(ctx)

	var started atomic.Int64
	release := make(chan struct{})
	ready := make(chan struct{}, workers)
	done := make(chan error, 1)
	go func() {
		done <- g.Map(100, func(cell, _ int) error {
			started.Add(1)
			ready <- struct{}{}
			<-release
			return nil
		})
	}()
	for i := 0; i < workers; i++ {
		<-ready // both workers are now parked inside a cell
	}
	cancel()
	close(release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map returned %v, want context.Canceled", err)
	}
	if got := started.Load(); got != workers {
		t.Errorf("%d cells started, want exactly %d (queued cells must never start after cancel)", got, workers)
	}
}

// TestNestedMapSaturationDegradesToSerial: when the pool is saturated by
// an outer Map, an inner Map must run every cell serially on its caller
// (worker 0), not wait for tokens its ancestors hold.
func TestNestedMapSaturationDegradesToSerial(t *testing.T) {
	const workers = 2
	p := New(workers)
	outer := p.Group()
	var entered atomic.Int64
	barrier := make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(workers)
	err := outer.Map(workers, func(cell, _ int) error {
		// Hold every outer cell here until all of them run at once: the
		// pool is then provably saturated when the inner Maps start.
		if entered.Add(1) == workers {
			close(barrier)
		}
		<-barrier
		// Hold every outer cell again until all inner Maps are done: an
		// outer cell that returned early would hand its worker's token back
		// while another inner Map could still recruit it.
		defer func() {
			finished.Done()
			finished.Wait()
		}()
		inner := p.Group()
		var innerCur, innerPeak atomic.Int64
		if err := inner.Map(25, func(c, w int) error {
			if w != 0 {
				return fmt.Errorf("inner cell %d ran on worker %d, want 0 (serial degradation)", c, w)
			}
			cur := innerCur.Add(1)
			for {
				pk := innerPeak.Load()
				if cur <= pk || innerPeak.CompareAndSwap(pk, cur) {
					break
				}
			}
			innerCur.Add(-1)
			return nil
		}); err != nil {
			return err
		}
		if pk := innerPeak.Load(); pk != 1 {
			return fmt.Errorf("inner Map reached concurrency %d under saturation, want 1", pk)
		}
		if got := inner.Cells(); got != 25 {
			return fmt.Errorf("inner Map ran %d cells, want 25", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapNilContextNeverCancels(t *testing.T) {
	g := New(2).Group()
	var ran atomic.Int64
	if err := g.Map(64, func(cell, _ int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Errorf("ran %d cells, want 64", ran.Load())
	}
}

func TestIdleReportsFreeTokens(t *testing.T) {
	p := New(4)
	if got := p.Idle(); got != 3 {
		t.Fatalf("fresh 4-worker pool Idle() = %d, want 3 (workers minus the caller)", got)
	}
	if got := New(1).Idle(); got != 0 {
		t.Fatalf("single-worker pool Idle() = %d, want 0", got)
	}
	// Hold every token in long-running cells: a Map started now could
	// recruit no helpers, and Idle must say so.
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		done <- p.Group().Map(4, func(int, int) error {
			started <- struct{}{}
			<-release
			return nil
		})
	}()
	for i := 0; i < 4; i++ {
		<-started
	}
	if got := p.Idle(); got != 0 {
		t.Fatalf("saturated pool Idle() = %d, want 0", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := p.Idle(); got != 3 {
		t.Fatalf("drained pool Idle() = %d, want 3", got)
	}
}
