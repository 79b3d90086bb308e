package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
)

func instantSleep(time.Duration) {}

// testOpts is the base manager configuration for unit tests: tight backoff,
// an injected instant sleeper, and a private 1-worker pool so TryToken always
// trivially succeeds (its zero-capacity token bucket path) regardless of what
// other tests do to the shared pool.
func testOpts(run CellRunner) Options {
	return Options{
		Retries:         2,
		CellConcurrency: 2,
		BaseDelay:       time.Microsecond,
		MaxDelay:        time.Microsecond,
		Sleep:           instantSleep,
		Run:             run,
		Pool:            engine.New(1),
	}
}

// spec4 is the standard 4-cell grid: 2 seeds × maxk {4,5} of E7 at 2
// trials. E7 reads seed, trials and maxk, so the four cells have four
// distinct keys — the resume tests count journaled cells by key.
func spec4() Spec {
	return Spec{Experiments: []string{"E7"}, SeedStart: 11, SeedCount: 2, Trials: 2, MaxKMin: 4, MaxKMax: 5}
}

// echoBody is the deterministic stub result for a cell.
func echoBody(id string, cfg core.Config) []byte {
	return []byte(fmt.Sprintf("%s/%d/%d/%d", id, cfg.Seed, cfg.Trials, cfg.MaxK))
}

func echoRunner(_ context.Context, id string, cfg core.Config) ([]byte, error) {
	return echoBody(id, cfg), nil
}

func waitSettled(t *testing.T, m *Manager, id string) *Status {
	t.Helper()
	ch, ok := m.Wait(id)
	if !ok {
		t.Fatalf("Wait(%s): unknown job", id)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		st, _ := m.Status(id, false)
		t.Fatalf("job %s did not settle: %+v", id, st)
	}
	st, ok := m.Status(id, true)
	if !ok {
		t.Fatalf("Status(%s): unknown job", id)
	}
	return st
}

func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// checkConservation asserts the drained-ledger invariant: every submitted
// cell is accounted for exactly once and nothing is still moving.
func checkConservation(t *testing.T, l Ledger) {
	t.Helper()
	if l.CellsInFlight != 0 || l.CellsPending != 0 {
		t.Fatalf("ledger not drained: in_flight=%d pending=%d", l.CellsInFlight, l.CellsPending)
	}
	if got := l.CellsCompleted + l.CellsPoisoned + l.CellsCancelled; got != l.CellsSubmitted {
		t.Fatalf("cells ledger does not conserve: %d completed + %d poisoned + %d cancelled != %d submitted",
			l.CellsCompleted, l.CellsPoisoned, l.CellsCancelled, l.CellsSubmitted)
	}
	if got := l.JobsCompleted + l.JobsPartial + l.JobsCancelled + l.JobsActive; got != l.JobsSubmitted {
		t.Fatalf("jobs ledger does not conserve: %d+%d+%d+%d != %d submitted",
			l.JobsCompleted, l.JobsPartial, l.JobsCancelled, l.JobsActive, l.JobsSubmitted)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	m, err := Open(testOpts(echoRunner))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Total != 4 || st.Status != JobRunning {
		t.Fatalf("initial status: %+v", st)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 || fin.Poisoned != 0 {
		t.Fatalf("final status: %+v", fin)
	}
	for _, c := range fin.Cells {
		if c.State != "done" {
			t.Fatalf("cell %s state %q", c.Key, c.State)
		}
		want := echoBody("E7", core.Config{Seed: c.Seed, Trials: c.Trials, MaxK: c.MaxK})
		if string(c.Table) != string(want) {
			t.Fatalf("cell %s body %q, want %q", c.Key, c.Table, want)
		}
	}
	l := m.Ledger()
	checkConservation(t, l)
	if l.CellsSubmitted != 4 || l.CellsCompleted != 4 || l.JobsCompleted != 1 {
		t.Fatalf("ledger: %+v", l)
	}
}

// TestRetryThenPoisonDegradesToPartial: one cell fails deterministically
// every attempt; it burns its budget, poisons, and the job lands "partial"
// with every other cell's table intact.
func TestRetryThenPoisonDegradesToPartial(t *testing.T) {
	run := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		if cfg.Seed == 11 && cfg.MaxK == 4 {
			return nil, errors.New("boom: synthetic cell failure")
		}
		return echoRunner(ctx, id, cfg)
	}
	m, err := Open(testOpts(run))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobPartial || fin.Completed != 3 || fin.Poisoned != 1 {
		t.Fatalf("final status: %+v", fin)
	}
	for _, c := range fin.Cells {
		if c.Seed == 11 && c.MaxK == 4 {
			if c.State != "poisoned" || c.Attempts != 2 || c.Error == "" {
				t.Fatalf("poisoned cell: %+v", c)
			}
		} else if c.State != "done" {
			t.Fatalf("healthy cell %s state %q", c.Key, c.State)
		}
	}
	l := m.Ledger()
	checkConservation(t, l)
	if l.Retries != 1 || l.JobsPartial != 1 {
		t.Fatalf("ledger: retries=%d partial=%d", l.Retries, l.JobsPartial)
	}
}

// TestTransientErrorsDoNotConsumeBudget: admission sheds (as classified by
// Options.Transient) retry forever without burning attempts — with a budget
// of 1, five consecutive sheds would poison instantly if they counted.
func TestTransientErrorsDoNotConsumeBudget(t *testing.T) {
	shed := errors.New("synthetic overload")
	var sheds atomic.Int32
	run := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		if cfg.Seed == 11 && cfg.MaxK == 4 && sheds.Add(1) <= 5 {
			return nil, shed
		}
		return echoRunner(ctx, id, cfg)
	}
	opts := testOpts(run)
	opts.Retries = 1
	opts.Transient = func(err error) bool { return errors.Is(err, shed) }
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 {
		t.Fatalf("final status: %+v", fin)
	}
	l := m.Ledger()
	checkConservation(t, l)
	if l.TransientSheds != 5 || l.CellsPoisoned != 0 {
		t.Fatalf("ledger: sheds=%d poisoned=%d", l.TransientSheds, l.CellsPoisoned)
	}
}

// TestCancelInterruptsAndConserves: cancelling a running job cancels pending
// cells immediately, interrupts in-flight cells via context, settles, and the
// ledger still conserves. A second cancel is an idempotent no-op.
func TestCancelInterruptsAndConserves(t *testing.T) {
	block := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m, err := Open(testOpts(block))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.Ledger().CellsInFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("cells never dispatched: %+v", m.Ledger())
		}
		time.Sleep(time.Millisecond)
	}
	cst, ok := m.Cancel(st.ID)
	if !ok || cst.Status != JobCancelled {
		t.Fatalf("Cancel: ok=%v %+v", ok, cst)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobCancelled || fin.Cancelled != 4 || fin.Completed != 0 {
		t.Fatalf("final status: %+v", fin)
	}
	again, ok := m.Cancel(st.ID)
	if !ok || again.Status != JobCancelled {
		t.Fatalf("second Cancel: ok=%v %+v", ok, again)
	}
	l := m.Ledger()
	checkConservation(t, l)
	if l.JobsCancelled != 1 || l.CellsCancelled != 4 {
		t.Fatalf("ledger: %+v", l)
	}
}

// TestSubmitSheddingAndClose: MaxJobs bounds active jobs with ErrTooManyJobs,
// bad specs are rejected before admission, and Submit after Close fails with
// ErrClosed.
func TestSubmitSheddingAndClose(t *testing.T) {
	block := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	opts := testOpts(block)
	opts.MaxJobs = 1
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := m.Submit(spec4()); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("over-admission error: %v", err)
	}
	if _, err := m.Submit(Spec{Experiments: []string{"nope"}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad spec error: %v", err)
	}
	if _, ok := m.Cancel(st.ID); !ok {
		t.Fatal("Cancel: unknown job")
	}
	waitSettled(t, m, st.ID)
	if _, err := m.Submit(spec4()); err != nil {
		t.Fatalf("Submit after cancel freed the slot: %v", err)
	}
	closeManager(t, m)
	if _, err := m.Submit(spec4()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if lst := m.List(); len(lst) != 2 {
		t.Fatalf("List: %d jobs, want 2", len(lst))
	}
}

// TestWeightedRoundRobinOrder pins the scheduler's fairness discipline: with
// one global slot the execution order equals the dispatch order, and a
// weight-2 job is offered two cells for every one a weight-1 job gets.
func TestWeightedRoundRobinOrder(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []uint64
	run := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		<-gate
		mu.Lock()
		order = append(order, cfg.Seed)
		mu.Unlock()
		return echoBody(id, cfg), nil
	}
	opts := testOpts(run)
	opts.CellConcurrency = 1
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	a, err := m.Submit(Spec{Experiments: []string{"E1"}, SeedStart: 100, SeedCount: 3, Trials: 2, MaxKMin: 4, MaxKMax: 4, Weight: 1})
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	b, err := m.Submit(Spec{Experiments: []string{"E1"}, SeedStart: 200, SeedCount: 6, Trials: 2, MaxKMin: 4, MaxKMax: 4, Weight: 2})
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	close(gate)
	waitSettled(t, m, a.ID)
	waitSettled(t, m, b.ID)
	mu.Lock()
	got := append([]uint64(nil), order...)
	mu.Unlock()
	want := []uint64{100, 200, 201, 101, 202, 203, 102, 204, 205}
	if len(got) != len(want) {
		t.Fatalf("executed %d cells, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverges at %d: got %v, want %v", i, got, want)
		}
	}
}

// killForTest simulates SIGKILL as closely as an in-process test can:
// hard-cancel every context, wait for in-flight cells to vacate their slots,
// and drop the journal descriptor without syncing and without writing any
// terminal record. Because each append fsync'd itself, nothing journaled is
// lost.
func (m *Manager) killForTest() {
	m.cancel()
	for i := 0; i < cap(m.slots); i++ {
		m.slots <- struct{}{}
	}
	if m.journal != nil {
		m.journal.abandon()
	}
}

// TestKillRestartResume is the crash-safety proof for the stub runner: kill
// the manager mid-sweep with exactly two cells journaled, restart on the same
// directory, and the resumed run must execute exactly the two missing cells
// and converge to the same per-cell bodies as an uninterrupted run.
func TestKillRestartResume(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: first two cells complete, everything after blocks until the
	// kill's context cancellation releases it.
	var calls atomic.Int32
	blockAfter2 := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		if calls.Add(1) > 2 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return echoBody(id, cfg), nil
	}
	opts := testOpts(blockAfter2)
	opts.Dir = dir
	m1, err := Open(opts)
	if err != nil {
		t.Fatalf("Open phase 1: %v", err)
	}
	st, err := m1.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 2 completed cells: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	doneBefore := map[string]bool{}
	withCells, _ := m1.Status(st.ID, true)
	for _, c := range withCells.Cells {
		if c.State == "done" {
			doneBefore[c.Key] = true
		}
	}
	m1.killForTest()

	// Phase 2: restart on the same directory with a runner that records what
	// it actually executes.
	var mu sync.Mutex
	executed := map[string]bool{}
	recording := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		mu.Lock()
		executed[core.CacheKey(id, cfg)] = true
		mu.Unlock()
		return echoBody(id, cfg), nil
	}
	opts2 := testOpts(recording)
	opts2.Dir = dir
	m2, err := Open(opts2)
	if err != nil {
		t.Fatalf("Open phase 2: %v", err)
	}
	defer closeManager(t, m2)
	resumed, ok := m2.Status(st.ID, false)
	if !ok {
		t.Fatalf("job %s not resumed from journal", st.ID)
	}
	if resumed.Completed != 2 {
		t.Fatalf("resume pre-marked %d cells done, want 2", resumed.Completed)
	}
	fin := waitSettled(t, m2, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 {
		t.Fatalf("resumed final status: %+v", fin)
	}

	// Exactly the un-journaled cells re-ran; the journaled two did not.
	mu.Lock()
	defer mu.Unlock()
	if len(executed) != 2 {
		t.Fatalf("resume executed %d cells, want exactly the 2 missing: %v", len(executed), keysOf(executed))
	}
	for key := range executed {
		if doneBefore[key] {
			t.Fatalf("resume recomputed already-journaled cell %s", key)
		}
	}
	// Byte-identity with an uninterrupted run: every cell's body equals the
	// deterministic stub output, whether it came from the journal or a rerun.
	for _, c := range fin.Cells {
		want := echoBody("E7", core.Config{Seed: c.Seed, Trials: c.Trials, MaxK: c.MaxK})
		if string(c.Table) != string(want) {
			t.Fatalf("cell %s body %q, want %q", c.Key, c.Table, want)
		}
	}
	l := m2.Ledger()
	checkConservation(t, l)
	if l.CellsSubmitted != 4 || l.CellsCompleted != 4 || l.JobsCompleted != 1 {
		t.Fatalf("resumed ledger: %+v", l)
	}
}

// TestDuplicateKeyCellsResumeFromOneRecord: E11 reads no config field, so
// a job over E11 × 3 seeds has three cells with one key. All three
// complete, and after a kill with a single cell journaled, restart recovers
// every one of them from that record and runs nothing.
func TestDuplicateKeyCellsResumeFromOneRecord(t *testing.T) {
	spec := Spec{Experiments: []string{"E11"}, SeedStart: 1, SeedCount: 3, Trials: 2, MaxKMin: 4, MaxKMax: 4}
	norm, err := spec.normalize(4096)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	cells := norm.cells()
	key := core.CacheKey("E11", core.Config{})
	if len(cells) != 3 {
		t.Fatalf("spec expands to %d cells, want 3", len(cells))
	}
	for _, c := range cells {
		if c.Key != key {
			t.Fatalf("cell at seed %d has key %s, want the shared %s", c.Config.Seed, c.Key, key)
		}
	}
	keyBody := func(id string, cfg core.Config) []byte { return []byte(core.CacheKey(id, cfg)) }

	// Phase 1: the first cell completes and is journaled; the others block
	// until the kill cancels them.
	dir := t.TempDir()
	var calls atomic.Int32
	blockAfter1 := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		if calls.Add(1) > 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return keyBody(id, cfg), nil
	}
	opts := testOpts(blockAfter1)
	opts.Dir = dir
	m1, err := Open(opts)
	if err != nil {
		t.Fatalf("Open phase 1: %v", err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never completed a cell: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.killForTest()

	// Phase 2: the one journaled body settles all three cells.
	var reruns atomic.Int32
	counting := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		reruns.Add(1)
		return keyBody(id, cfg), nil
	}
	opts2 := testOpts(counting)
	opts2.Dir = dir
	m2, err := Open(opts2)
	if err != nil {
		t.Fatalf("Open phase 2: %v", err)
	}
	defer closeManager(t, m2)
	if resumed, ok := m2.Status(st.ID, false); !ok || resumed.Completed != 3 {
		t.Fatalf("resume pre-marked %+v, want all 3 cells done from one journal record", resumed)
	}
	fin := waitSettled(t, m2, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 3 {
		t.Fatalf("resumed final status: %+v", fin)
	}
	if n := reruns.Load(); n != 0 {
		t.Fatalf("resume ran %d cells, want 0", n)
	}
	for _, c := range fin.Cells {
		if c.Key != key || string(c.Table) != key {
			t.Fatalf("cell at seed %d: key %s body %q, want key and body %s", c.Seed, c.Key, c.Table, key)
		}
	}
	l := m2.Ledger()
	checkConservation(t, l)
	if l.CellsSubmitted != 3 || l.CellsCompleted != 3 || l.JobsCompleted != 1 {
		t.Fatalf("resumed ledger: %+v", l)
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// realCellRunner runs the actual experiment and marshals its table with
// zeroed Metrics, the canonical body for byte-identity comparisons (Metrics
// carry wall-clock noise by design).
func realCellRunner(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
	tab, err := core.RunContext(ctx, id, cfg)
	if err != nil {
		return nil, err
	}
	tab.Metrics = core.Metrics{}
	return json.Marshal(tab)
}

// TestResumeIdentityAcrossWorkerCounts is the end-to-end identity proof with
// the real experiment runner: a run interrupted at 4 engine workers and
// resumed must produce tables byte-identical to a direct serial computation
// at 1 worker — crash recovery and engine parallelism both invisible in the
// results.
func TestResumeIdentityAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiment cells")
	}
	spec := Spec{Experiments: []string{"E7"}, SeedStart: 7, SeedCount: 2, Trials: 2, MaxKMin: 4, MaxKMax: 5}
	norm, err := spec.normalize(4096)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}

	// Reference: direct, serial, uninterrupted.
	engine.SetSharedWorkers(1)
	defer engine.SetSharedWorkers(0)
	want := map[string][]byte{}
	for _, cell := range norm.cells() {
		body, err := realCellRunner(context.Background(), cell.Experiment, cell.Config)
		if err != nil {
			t.Fatalf("reference run %s: %v", cell.Key, err)
		}
		want[cell.Key] = body
	}

	// Interrupted run at a different worker count.
	engine.SetSharedWorkers(4)
	dir := t.TempDir()
	var calls atomic.Int32
	gated := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		if calls.Add(1) > 2 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return realCellRunner(ctx, id, cfg)
	}
	opts := testOpts(gated)
	opts.Dir = dir
	m1, err := Open(opts)
	if err != nil {
		t.Fatalf("Open phase 1: %v", err)
	}
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 2 completed cells: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.killForTest()

	var reruns atomic.Int32
	counting := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		reruns.Add(1)
		return realCellRunner(ctx, id, cfg)
	}
	opts2 := testOpts(counting)
	opts2.Dir = dir
	m2, err := Open(opts2)
	if err != nil {
		t.Fatalf("Open phase 2: %v", err)
	}
	defer closeManager(t, m2)
	fin := waitSettled(t, m2, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 {
		t.Fatalf("resumed final status: %+v", fin)
	}
	if n := reruns.Load(); n != 2 {
		t.Fatalf("resume recomputed %d cells, want only the 2 the kill destroyed", n)
	}
	for _, c := range fin.Cells {
		if string(c.Table) != string(want[c.Key]) {
			t.Fatalf("cell %s table diverges from uninterrupted serial run:\n got %s\nwant %s",
				c.Key, c.Table, want[c.Key])
		}
	}
}

// TestJournalFaultsDegradeGracefully arms the jobs.journal fault point at
// probability 1: every append fails, the failures are counted, and the job
// still completes — journal loss costs durability, never liveness.
func TestJournalFaultsDegradeGracefully(t *testing.T) {
	if _, err := fault.Enable(42, "jobs.journal:error:1"); err != nil {
		t.Fatalf("fault.Enable: %v", err)
	}
	defer fault.Disable()
	opts := testOpts(echoRunner)
	opts.Dir = t.TempDir()
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 {
		t.Fatalf("final status: %+v", fin)
	}
	l := m.Ledger()
	checkConservation(t, l)
	// created + 4 cells + terminal all failed to journal.
	if l.JournalErrors != 6 {
		t.Fatalf("journal errors: %d, want 6", l.JournalErrors)
	}
}

// TestSchedulerFaultsContained arms jobs.sched with panics: the scheduler
// goroutine must contain them, relaunch itself, and still drain the job.
func TestSchedulerFaultsContained(t *testing.T) {
	if _, err := fault.Enable(7, "jobs.sched:panic:0.5"); err != nil {
		t.Fatalf("fault.Enable: %v", err)
	}
	defer fault.Disable()
	m, err := Open(testOpts(echoRunner))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, err := m.Submit(spec4())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin := waitSettled(t, m, st.ID)
	if fin.Status != JobCompleted || fin.Completed != 4 {
		t.Fatalf("final status under sched chaos: %+v", fin)
	}
	if m.Ledger().SchedFaults == 0 {
		t.Fatal("sched faults armed at p=0.5 but none recorded")
	}
}

// TestRestoreFinalizesCrashBeforeTerminal covers the crash window between the
// last cell record and the terminal record: restore must finish the
// bookkeeping, marking the job terminal without re-running anything.
func TestRestoreFinalizesCrashBeforeTerminal(t *testing.T) {
	dir := t.TempDir()
	spec, err := spec4().normalize(4096)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	specJSON, _ := json.Marshal(spec)
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	mustAppend(t, j.AppendJobCreated("j1", specJSON))
	for _, cell := range spec.cells() {
		mustAppend(t, j.AppendCell(cell.Key, echoBody(cell.Experiment, cell.Config)))
	}
	// No terminal record: the "crash" hit right here.
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ran := atomic.Int32{}
	run := func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
		ran.Add(1)
		return echoRunner(ctx, id, cfg)
	}
	opts := testOpts(run)
	opts.Dir = dir
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer closeManager(t, m)
	st, ok := m.Status("j1", false)
	if !ok {
		t.Fatal("job not restored")
	}
	if st.Status != JobCompleted || st.Completed != 4 {
		t.Fatalf("restore did not finalize: %+v", st)
	}
	waitSettled(t, m, "j1")
	if ran.Load() != 0 {
		t.Fatalf("finalized job re-ran %d cells", ran.Load())
	}
	l := m.Ledger()
	checkConservation(t, l)
	if l.JobsCompleted != 1 || l.JobsActive != 0 {
		t.Fatalf("ledger: %+v", l)
	}
}
