package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Job terminal statuses. A job is "running" until every cell reaches a
// terminal state; it degrades to "partial" — not "failed" — when some cells
// poisoned, because the other cells' tables are still good science.
const (
	JobRunning   = "running"
	JobCompleted = "completed"
	JobPartial   = "partial"
	JobCancelled = "cancelled"
)

// CellState is one work item's lifecycle position.
type CellState uint8

const (
	CellPending CellState = iota
	CellRunning
	CellDone
	CellPoisoned
	CellCancelled
)

func (s CellState) String() string {
	switch s {
	case CellPending:
		return "pending"
	case CellRunning:
		return "running"
	case CellDone:
		return "done"
	case CellPoisoned:
		return "poisoned"
	case CellCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("CellState(%d)", uint8(s))
}

var (
	// ErrTooManyJobs is returned by Submit when MaxJobs jobs are already
	// active; the service maps it to 503 + Retry-After.
	ErrTooManyJobs = errors.New("jobs: too many active jobs")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
)

// CellRunner executes one cell and returns its result body. The service
// wires this to its cached run path, so batch cells share the
// content-addressed cache, the singleflight, and the admission queue with
// interactive requests.
type CellRunner func(ctx context.Context, id string, cfg core.Config) ([]byte, error)

// Options configures a Manager. The zero value of each field selects its
// default.
type Options struct {
	// Dir is the journal directory; "" runs volatile (no durability).
	Dir string
	// MaxJobs bounds concurrently active (non-terminal) jobs; Submit sheds
	// beyond it. Default 8.
	MaxJobs int
	// Retries is the per-cell attempt budget before the cell is poisoned.
	// Default 3.
	Retries int
	// CellConcurrency bounds batch cells in flight across all jobs.
	// Default 2.
	CellConcurrency int
	// BaseDelay/MaxDelay shape the capped exponential retry backoff.
	// Defaults 50ms / 2s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the deterministic per-cell backoff jitter streams, the
	// same discipline as the service client's. Default: the core default
	// seed.
	Seed uint64
	// Sleep is the backoff/pacing sleeper; tests inject an instant one.
	// Default time.Sleep.
	Sleep func(time.Duration)
	// Run executes one cell. Required.
	Run CellRunner
	// Transient classifies runner errors that should be retried without
	// consuming the cell's attempt budget (admission sheds). Default: none.
	Transient func(error) bool
	// Pool is the engine pool whose idle capacity gates dispatch; batch
	// work must not starve interactive Maps of recruits. Default:
	// engine.Shared().
	Pool *engine.Pool
}

const (
	// maxCellsPerJob bounds a single spec's grid.
	maxCellsPerJob = 4096
	// poolReserve is how many pool tokens dispatch leaves free for
	// interactive work.
	poolReserve = 1
)

func (o Options) withDefaults() Options {
	if o.MaxJobs == 0 {
		o.MaxJobs = 8
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.CellConcurrency == 0 {
		o.CellConcurrency = 2
	}
	if o.BaseDelay == 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = core.DefaultConfig().Seed
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Pool == nil {
		o.Pool = engine.Shared()
	}
	return o
}

// cellState is one work item plus its runtime state; all mutable fields are
// guarded by the owning Job's mu.
type cellState struct {
	Cell
	state    CellState
	attempts int
	body     []byte
	errMsg   string
}

// Job is one submitted batch. Immutable identity fields are set at
// construction; everything mutable sits behind mu. Lock order is always
// Manager.mu before Job.mu, never the reverse.
type Job struct {
	id     string
	weight int
	spec   Spec
	total  int // len(cells), immutable after construction
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job is settled: terminal status and no cell
	// still in flight.
	done chan struct{}

	mu sync.Mutex
	//lint:guardedby mu
	cells []cellState
	//lint:guardedby mu
	queue []int // pending cell indices, dispatch order
	//lint:guardedby mu
	status string
	//lint:guardedby mu
	running int
	//lint:guardedby mu
	credit int // weighted-round-robin credit left in the current cycle
	//lint:guardedby mu
	settled bool
}

// anyPoisonedLocked reports whether any cell exhausted its retries.
//
//lint:locked mu
func (j *Job) anyPoisonedLocked() bool {
	for i := range j.cells {
		if j.cells[i].state == CellPoisoned {
			return true
		}
	}
	return false
}

// CellStatus is one cell's externally visible state.
type CellStatus struct {
	Experiment string          `json:"experiment"`
	Seed       uint64          `json:"seed"`
	Trials     int             `json:"trials"`
	MaxK       int             `json:"maxk"`
	Key        string          `json:"key"`
	State      string          `json:"state"`
	Attempts   int             `json:"attempts,omitempty"`
	Error      string          `json:"error,omitempty"`
	Table      json.RawMessage `json:"table,omitempty"`
}

// Status is a job snapshot: the counts load balancers and CLIs poll, plus
// (on request) per-cell detail with the completed cells' tables — partial
// results stream out while the job still runs.
type Status struct {
	ID        string       `json:"id"`
	Status    string       `json:"status"`
	Weight    int          `json:"weight"`
	Total     int          `json:"total"`
	Completed int          `json:"completed"`
	Poisoned  int          `json:"poisoned"`
	Cancelled int          `json:"cancelled"`
	Running   int          `json:"running"`
	Pending   int          `json:"pending"`
	Cells     []CellStatus `json:"cells,omitempty"`
}

// statusLocked assembles a snapshot; bodies are aliased, not copied — they
// are write-once after a cell completes.
//
//lint:locked mu
func (j *Job) statusLocked(withCells bool) *Status {
	st := &Status{ID: j.id, Status: j.status, Weight: j.weight, Total: len(j.cells)}
	for i := range j.cells {
		c := &j.cells[i]
		switch c.state {
		case CellDone:
			st.Completed++
		case CellPoisoned:
			st.Poisoned++
		case CellCancelled:
			st.Cancelled++
		case CellRunning:
			st.Running++
		default:
			st.Pending++
		}
		if !withCells {
			continue
		}
		cs := CellStatus{
			Experiment: c.Experiment,
			Seed:       c.Config.Seed,
			Trials:     c.Config.Trials,
			MaxK:       c.Config.MaxK,
			Key:        c.Key,
			State:      c.state.String(),
			Attempts:   c.attempts,
			Error:      c.errMsg,
		}
		if c.state == CellDone {
			cs.Table = json.RawMessage(c.body)
		}
		st.Cells = append(st.Cells, cs)
	}
	return st
}

// Ledger is the jobs conservation snapshot for /metrics. At drain
// (InFlight == Pending == 0) the cells ledger conserves:
// CellsSubmitted == CellsCompleted + CellsPoisoned + CellsCancelled.
type Ledger struct {
	JobsSubmitted int64 `json:"submitted"`
	JobsActive    int64 `json:"active"`
	JobsCompleted int64 `json:"completed"`
	JobsPartial   int64 `json:"partial"`
	JobsCancelled int64 `json:"cancelled"`

	CellsSubmitted int64 `json:"cells_submitted"`
	CellsCompleted int64 `json:"cells_completed"`
	CellsPoisoned  int64 `json:"cells_poisoned"`
	CellsCancelled int64 `json:"cells_cancelled"`
	CellsInFlight  int64 `json:"cells_in_flight"`
	CellsPending   int64 `json:"cells_pending"`

	Retries          int64 `json:"retries"`
	TransientSheds   int64 `json:"transient_sheds"`
	JournalErrors    int64 `json:"journal_errors"`
	SchedFaults      int64 `json:"sched_faults"`
	JournalTornBytes int64 `json:"journal_torn_bytes"`
}

// Manager owns the jobs: admission, the weighted-round-robin scheduler, the
// retry/poison machinery, and the journal.
type Manager struct {
	opts    Options
	ctx     context.Context
	cancel  context.CancelFunc
	journal *Journal
	// wake (1-buffered) kicks the scheduler; slots is the global
	// cell-concurrency semaphore — dispatch sends, completion receives, and
	// Close acquires every slot as its drain barrier.
	wake  chan struct{}
	slots chan struct{}

	mu sync.Mutex
	//lint:guardedby mu
	jobs map[string]*Job
	//lint:guardedby mu
	order []*Job // submission order; the round-robin ring
	//lint:guardedby mu
	seq int
	//lint:guardedby mu
	rr int // round-robin cursor into order
	//lint:guardedby mu
	closed bool

	jobsSubmitted  atomic.Int64
	jobsActive     atomic.Int64
	jobsCompleted  atomic.Int64
	jobsPartial    atomic.Int64
	jobsCancelled  atomic.Int64
	cellsSubmitted atomic.Int64
	cellsCompleted atomic.Int64
	cellsPoisoned  atomic.Int64
	cellsCancelled atomic.Int64
	cellsInFlight  atomic.Int64
	cellsPending   atomic.Int64
	retries        atomic.Int64
	transientSheds atomic.Int64
	journalErrs    atomic.Int64
	schedFaults    atomic.Int64
	tornBytes      atomic.Int64
}

// Open builds a Manager, replays the journal when Dir is set (resuming any
// non-terminal jobs with their journaled cells pre-completed), and starts
// the scheduler.
func Open(opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	if opts.Run == nil {
		return nil, errors.New("jobs: Options.Run is required")
	}
	m := &Manager{
		opts:  opts,
		wake:  make(chan struct{}, 1),
		slots: make(chan struct{}, opts.CellConcurrency),
		jobs:  map[string]*Job{},
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if opts.Dir != "" {
		j, rep, err := OpenJournal(opts.Dir)
		if err != nil {
			return nil, err
		}
		m.journal = j
		m.tornBytes.Store(rep.TornBytes)
		m.restore(rep)
	}
	go m.schedule()
	m.kick()
	return m, nil
}

// restore rebuilds jobs from a journal replay: journaled cells are
// pre-marked done with their bodies attached, poisoned cells keep their
// error text, and everything else re-enters the queue — restart recomputes
// only the work the crash actually destroyed.
func (m *Manager) restore(rep *Replay) {
	for _, rj := range rep.Jobs {
		var spec Spec
		if err := json.Unmarshal(rj.SpecJSON, &spec); err != nil {
			m.journalErrs.Add(1)
			continue
		}
		norm, err := spec.normalize(maxCellsPerJob)
		if err != nil {
			// The journaled spec no longer validates (e.g. an experiment
			// retired across versions): drop the job rather than the journal.
			m.journalErrs.Add(1)
			continue
		}
		j := m.newJob(rj.ID, norm)
		var pending []int
		j.mu.Lock()
		for i := range j.cells {
			c := &j.cells[i]
			if body, ok := rep.Bodies[c.Key]; ok {
				c.state = CellDone
				c.body = body
				m.cellsCompleted.Add(1)
				continue
			}
			if msg, ok := rj.Poisoned[c.Key]; ok {
				c.state = CellPoisoned
				c.errMsg = msg
				c.attempts = m.opts.Retries
				m.cellsPoisoned.Add(1)
				continue
			}
			if rj.Terminal != "" {
				c.state = CellCancelled
				m.cellsCancelled.Add(1)
				continue
			}
			pending = append(pending, i)
		}
		j.queue = pending
		terminal := rj.Terminal
		if terminal == "" && len(pending) == 0 {
			// Crash landed between the last cell record and the terminal
			// record: finish the bookkeeping now.
			if j.anyPoisonedLocked() {
				terminal = JobPartial
			} else {
				terminal = JobCompleted
			}
			m.appendTerminal(j.id, terminal)
		}
		if terminal != "" {
			j.status = terminal
			j.settled = true
			close(j.done)
		}
		j.mu.Unlock()

		m.jobsSubmitted.Add(1)
		m.cellsSubmitted.Add(int64(j.total))
		m.cellsPending.Add(int64(len(pending)))
		switch terminal {
		case "":
			m.jobsActive.Add(1)
		case JobCompleted:
			m.jobsCompleted.Add(1)
		case JobPartial:
			m.jobsPartial.Add(1)
		default:
			m.jobsCancelled.Add(1)
		}

		m.mu.Lock()
		m.jobs[j.id] = j
		m.order = append(m.order, j)
		if n, err := strconv.Atoi(trimJobPrefix(j.id)); err == nil && n > m.seq {
			m.seq = n
		}
		m.mu.Unlock()
	}
}

// trimJobPrefix strips the "j" ID prefix for sequence recovery.
func trimJobPrefix(id string) string {
	if len(id) > 0 && id[0] == 'j' {
		return id[1:]
	}
	return id
}

func (m *Manager) newJob(id string, spec Spec) *Job {
	specCells := spec.cells()
	cells := make([]cellState, len(specCells))
	queue := make([]int, len(specCells))
	for i, c := range specCells {
		cells[i].Cell = c
		queue[i] = i
	}
	j := &Job{
		id:     id,
		weight: spec.Weight,
		spec:   spec,
		total:  len(specCells),
		done:   make(chan struct{}),
		cells:  cells,
		queue:  queue,
		status: JobRunning,
		credit: spec.Weight,
	}
	j.ctx, j.cancel = context.WithCancel(m.ctx)
	return j
}

// Submit validates and admits a job, journals its creation, and wakes the
// scheduler. It returns immediately with the job's initial status.
func (m *Manager) Submit(spec Spec) (*Status, error) {
	norm, err := spec.normalize(maxCellsPerJob)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(norm)
	if err != nil {
		return nil, fmt.Errorf("jobs: marshal spec: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.jobsActive.Load() >= int64(m.opts.MaxJobs) {
		m.mu.Unlock()
		return nil, ErrTooManyJobs
	}
	// Incremented under m.mu so concurrent Submits cannot all pass the
	// admission check above and overshoot MaxJobs; decrements elsewhere are
	// lock-free, which only ever frees capacity early.
	m.jobsActive.Add(1)
	m.seq++
	id := "j" + strconv.Itoa(m.seq)
	j := m.newJob(id, norm)
	// Snapshot the initial status before the job becomes visible to the
	// scheduler: once it is in m.order, a fast runner can finish it before
	// Submit returns. Lock order m.mu then j.mu, as in nextDispatch.
	j.mu.Lock()
	st := j.statusLocked(false)
	j.mu.Unlock()
	m.jobs[id] = j
	m.order = append(m.order, j)
	m.mu.Unlock()

	m.jobsSubmitted.Add(1)
	m.cellsSubmitted.Add(int64(j.total))
	m.cellsPending.Add(int64(j.total))
	if m.journal != nil {
		if jerr := m.journal.AppendJobCreated(id, specJSON); jerr != nil {
			// Graceful degradation: the job still runs, it just cannot be
			// resumed after a crash. Counted, not fatal.
			m.journalErrs.Add(1)
		}
	}
	m.kick()
	return st, nil
}

// Status snapshots one job; withCells includes per-cell detail and the
// completed cells' tables.
func (m *Manager) Status(id string, withCells bool) (*Status, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(withCells), true
}

// List snapshots every job in submission order, without cell detail.
func (m *Manager) List() []*Status {
	m.mu.Lock()
	jobs := make([]*Job, len(m.order))
	copy(jobs, m.order)
	m.mu.Unlock()
	out := make([]*Status, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, j.statusLocked(false))
		j.mu.Unlock()
	}
	return out
}

// Wait returns a channel that closes when the job settles (terminal status
// and no cell still in flight). It closes only after the job's terminal
// ledger counters are updated, so a waiter reads a settled Ledger; a job
// that ends on its own also has its terminal journal record written by
// then (a cancelled one may still be writing it).
func (m *Manager) Wait(id string) (<-chan struct{}, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, false
	}
	return j.done, true
}

// Cancel moves a running job to cancelled: pending cells are cancelled
// immediately, in-flight cells are interrupted via the job's context, and
// the cancellation is journaled so a restart does not resurrect the job.
// Cancelling a terminal job is a no-op returning its status.
func (m *Manager) Cancel(id string) (*Status, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	if j.status != JobRunning {
		defer j.mu.Unlock()
		return j.statusLocked(false), true
	}
	j.status = JobCancelled
	for _, ci := range j.queue {
		j.cells[ci].state = CellCancelled
		m.cellsCancelled.Add(1)
		m.cellsPending.Add(-1)
	}
	j.queue = nil
	settle := j.running == 0 && !j.settled
	if settle {
		j.settled = true
	}
	st := j.statusLocked(false)
	// Counted before j.mu is released: an in-flight cell that finishes
	// right after may be the one that settles the job.
	m.jobsActive.Add(-1)
	m.jobsCancelled.Add(1)
	j.mu.Unlock()
	j.cancel()
	m.appendTerminal(id, JobCancelled)
	if settle {
		close(j.done)
	}
	m.kick()
	return st, true
}

// Ledger snapshots the jobs conservation counters.
func (m *Manager) Ledger() Ledger {
	return Ledger{
		JobsSubmitted: m.jobsSubmitted.Load(),
		JobsActive:    m.jobsActive.Load(),
		JobsCompleted: m.jobsCompleted.Load(),
		JobsPartial:   m.jobsPartial.Load(),
		JobsCancelled: m.jobsCancelled.Load(),

		CellsSubmitted: m.cellsSubmitted.Load(),
		CellsCompleted: m.cellsCompleted.Load(),
		CellsPoisoned:  m.cellsPoisoned.Load(),
		CellsCancelled: m.cellsCancelled.Load(),
		CellsInFlight:  m.cellsInFlight.Load(),
		CellsPending:   m.cellsPending.Load(),

		Retries:          m.retries.Load(),
		TransientSheds:   m.transientSheds.Load(),
		JournalErrors:    m.journalErrs.Load(),
		SchedFaults:      m.schedFaults.Load(),
		JournalTornBytes: m.tornBytes.Load(),
	}
}

// Close drains the manager: no new dispatches, in-flight cells get until
// ctx expires to finish (their results still journal), then everything is
// hard-cancelled and the journal closes. Close never writes terminal
// records — interrupted jobs stay resumable, which is the whole point.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.kick()
	// Acquiring every slot is the drain barrier: each in-flight cell holds
	// one until it finishes, and dispatch (which must acquire before
	// launching) finds the scheduler refusing new work.
	held := 0
	for held < cap(m.slots) {
		select {
		case m.slots <- struct{}{}:
			held++
		case <-ctx.Done():
			held = cap(m.slots) // give up waiting; hard-cancel below
		}
	}
	m.cancel()
	if m.journal != nil {
		return m.journal.Close()
	}
	return nil
}

// kick nudges the scheduler; the 1-buffered channel coalesces bursts.
func (m *Manager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// appendTerminal journals a terminal record, counting (not propagating)
// failures: journal loss degrades durability, never liveness.
func (m *Manager) appendTerminal(id, status string) {
	if m.journal == nil {
		return
	}
	if err := m.journal.AppendTerminal(id, status); err != nil {
		m.journalErrs.Add(1)
	}
}

// Scheduler pacing when it cannot make progress for reasons a wake-up
// cannot fix (armed jobs.sched fault, busy engine pool).
const schedPause = 2 * time.Millisecond

// schedule is the single scheduler goroutine: it sleeps on the wake channel
// and drains dispatchable cells. An injected jobs.sched panic is contained
// here and the scheduler relaunches itself, so a chaos storm can never
// wedge dispatch permanently.
func (m *Manager) schedule() {
	defer func() {
		if r := recover(); r != nil {
			m.schedFaults.Add(1)
			if m.ctx.Err() == nil {
				m.opts.Sleep(schedPause)
				m.kick()
				go m.schedule()
			}
		}
	}()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.wake:
		}
		m.dispatchLoop()
	}
}

// dispatchLoop launches cells until slots, work, or pool capacity run out.
func (m *Manager) dispatchLoop() {
	for {
		if m.ctx.Err() != nil {
			return
		}
		if err := fault.Fire(fault.PointJobsSched); err != nil {
			m.schedFaults.Add(1)
			m.opts.Sleep(schedPause)
			continue
		}
		select {
		case m.slots <- struct{}{}:
		default:
			return // all cell slots busy; a completion will kick us
		}
		j, ci, spec, ok := m.nextDispatch()
		if !ok {
			<-m.slots
			return // nothing dispatchable; a submit/completion will kick us
		}
		release, ok := m.opts.Pool.TryToken(poolReserve)
		if !ok {
			// Engine pool busy with interactive work: put the cell back and
			// retry shortly — batch only consumes idle capacity.
			m.requeue(j, ci)
			<-m.slots
			m.opts.Sleep(schedPause)
			continue
		}
		m.cellsPending.Add(-1)
		m.cellsInFlight.Add(1)
		go m.runCell(j, ci, spec, release)
	}
}

// nextDispatch picks the next cell under weighted round-robin: the cursor
// walks the submission ring, each job spends up to `weight` credits before
// the cursor moves on, and jobs that are terminal or drained are skipped
// (with their credit refreshed for the next cycle).
func (m *Manager) nextDispatch() (*Job, int, Cell, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, Cell{}, false
	}
	n := len(m.order)
	for scanned := 0; scanned < n; scanned++ {
		if m.rr >= n {
			m.rr = 0
		}
		j := m.order[m.rr]
		j.mu.Lock()
		if j.status == JobRunning && len(j.queue) > 0 {
			ci := j.queue[0]
			j.queue = j.queue[1:]
			j.cells[ci].state = CellRunning
			j.running++
			j.credit--
			if j.credit <= 0 {
				j.credit = j.weight
				m.rr++
			}
			spec := j.cells[ci].Cell
			j.mu.Unlock()
			return j, ci, spec, true
		}
		j.credit = j.weight
		j.mu.Unlock()
		m.rr++
	}
	return nil, 0, Cell{}, false
}

// requeue undoes a dispatch that could not launch (pool busy): the cell
// returns to the front of its job's queue.
func (m *Manager) requeue(j *Job, ci int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cells[ci].state == CellRunning {
		j.cells[ci].state = CellPending
		j.running--
		j.queue = append([]int{ci}, j.queue...)
	}
}

// runCell is one cell's worker: the attempt loop, then journaling, state
// commit, and terminal detection. It owns one concurrency slot and one pool
// token for its whole duration.
func (m *Manager) runCell(j *Job, ci int, spec Cell, release func()) {
	defer func() {
		release()
		<-m.slots
		m.kick()
	}()
	state, body, errMsg, attempts := m.attemptLoop(j, spec)

	// Journal before the in-memory commit: by the time Status reports the
	// cell done, it is durable. Journal failures degrade gracefully — the
	// result stays live in memory and in the service cache, it just gets
	// recomputed after a crash.
	if m.journal != nil {
		switch state {
		case CellDone:
			if err := m.journal.AppendCell(spec.Key, body); err != nil {
				m.journalErrs.Add(1)
			}
		case CellPoisoned:
			if err := m.journal.AppendPoison(j.id, spec.Key, errMsg); err != nil {
				m.journalErrs.Add(1)
			}
		}
	}

	m.cellsInFlight.Add(-1)

	// A cell cancelled by manager shutdown — not by its job — was merely
	// interrupted: put it back in the queue instead of resolving it, and
	// above all write no terminal record. A killed process must leave the
	// job looking exactly like a crash did, so restart resumes it.
	if state == CellCancelled && m.ctx.Err() != nil {
		j.mu.Lock()
		if j.status == JobRunning {
			j.cells[ci].state = CellPending
			j.queue = append([]int{ci}, j.queue...)
			j.running--
			j.mu.Unlock()
			m.cellsPending.Add(1)
			return
		}
		j.mu.Unlock()
	}

	switch state {
	case CellDone:
		m.cellsCompleted.Add(1)
	case CellPoisoned:
		m.cellsPoisoned.Add(1)
	default:
		m.cellsCancelled.Add(1)
	}

	terminal := ""
	j.mu.Lock()
	c := &j.cells[ci]
	c.state = state
	c.attempts = attempts
	c.body = body
	c.errMsg = errMsg
	j.running--
	if j.status == JobRunning && j.running == 0 && len(j.queue) == 0 {
		if j.anyPoisonedLocked() {
			j.status = JobPartial
		} else {
			j.status = JobCompleted
		}
		terminal = j.status
	}
	settle := j.status != JobRunning && j.running == 0 && !j.settled
	if settle {
		j.settled = true
	}
	j.mu.Unlock()
	if terminal != "" {
		m.jobsActive.Add(-1)
		if terminal == JobPartial {
			m.jobsPartial.Add(1)
		} else {
			m.jobsCompleted.Add(1)
		}
		m.appendTerminal(j.id, terminal)
	}
	if settle {
		close(j.done)
	}
}

// attemptLoop runs one cell to a terminal state: success, poison after the
// attempt budget, or cancellation. Transient errors (admission sheds, as
// classified by Options.Transient) retry with backoff without consuming the
// budget; real failures consume it. Panics in the runner are contained per
// attempt and count as real failures.
func (m *Manager) attemptLoop(j *Job, spec Cell) (CellState, []byte, string, int) {
	failures := 0
	waits := 0
	for {
		if j.ctx.Err() != nil {
			return CellCancelled, nil, "", failures
		}
		body, err := m.attempt(j.ctx, spec)
		if err == nil {
			return CellDone, body, "", failures + 1
		}
		if j.ctx.Err() != nil {
			return CellCancelled, nil, "", failures
		}
		if m.opts.Transient != nil && m.opts.Transient(err) {
			m.transientSheds.Add(1)
			waits++
			m.sleepBackoff(spec.Key, waits)
			continue
		}
		failures++
		if failures >= m.opts.Retries {
			return CellPoisoned, nil, err.Error(), failures
		}
		m.retries.Add(1)
		m.sleepBackoff(spec.Key, failures)
	}
}

// attempt executes the runner once with panic containment and the jobs.cell
// injection point in front, so chaos storms exercise exactly the retry
// paths production failures would.
func (m *Manager) attempt(ctx context.Context, spec Cell) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: cell %s seed=%d maxk=%d panicked: %v",
				spec.Experiment, spec.Config.Seed, spec.Config.MaxK, r)
		}
	}()
	if ferr := fault.Fire(fault.PointJobsCell); ferr != nil {
		return nil, ferr
	}
	return m.opts.Run(ctx, spec.Experiment, spec.Config)
}

// sleepBackoff sleeps the capped exponential backoff for a cell's n-th
// consecutive setback, jittered into [0.5, 1)× by a deterministic stream
// split per (seed, cell, n) — the same discipline as the service client's
// retry jitter, so a chaos replay at a fixed seed schedules identically.
func (m *Manager) sleepBackoff(key string, n int) {
	d := m.opts.BaseDelay
	for i := 1; i < n && d < m.opts.MaxDelay; i++ {
		d *= 2
	}
	if d > m.opts.MaxDelay {
		d = m.opts.MaxDelay
	}
	src := xrand.New(xrand.Split(m.opts.Seed, "jobs/backoff/"+key, int64(n)))
	m.opts.Sleep(time.Duration((0.5 + 0.5*src.Float64()) * float64(d)))
}
