// Package fault is the repository's seed-deterministic fault-injection
// layer: named injection points scattered through the engine and the
// cadaptived service that can fire panics, errors, or latency with
// configured probabilities, driven entirely by internal/xrand streams so
// that every chaos run is replayable from a single seed.
//
// Determinism model. Each injection point owns a private xrand stream
// seeded with xrand.Split(chaosSeed, pointName): the *sequence* of
// fire/no-fire decisions a point produces is a pure function of
// (seed, spec), independent of wall clock, process identity, or host.
// Under concurrency the runtime schedule decides which caller consumes
// which decision, so chaos tests assert schedule-independent invariants
// (no process death, token conservation, metrics conservation, eventual
// byte-identical results) rather than "request 7 fails" — the same posture
// the engine takes for result determinism, applied to failure.
//
// Cost model. When no injector is installed, Fire is a single atomic
// pointer load and a predictable branch — cheap enough to leave the calls
// compiled into production binaries, which is the point: the injection
// sites exercised by chaos tests are the exact sites that run in
// production, not a parallel build.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Injection point names. Points are dotted paths, coarsest-first
// (package.operation), so specs can be read like a blast-radius table.
const (
	// PointEngineCell fires inside engine.Map immediately before a cell's
	// function runs: an error here is indistinguishable from the cell
	// failing, a panic from the cell's code panicking.
	PointEngineCell = "engine.cell"
	// PointServiceHandler fires at the top of POST /v1/run request
	// handling, before validation — the middleware must contain it.
	PointServiceHandler = "service.handler"
	// PointServiceRun fires inside the admitted run path, after the
	// semaphore is held and before the experiment executes.
	PointServiceRun = "service.run"
	// PointServiceCache fires on the cache-fill path, after a successful
	// run and before its body is returned for insertion.
	PointServiceCache = "service.cache"
	// PointJobsJournal fires at the top of every jobs-journal append, before
	// the record is framed: an error here is indistinguishable from a failed
	// disk write, so it proves the journal's graceful-degradation path (count
	// the miss, keep the in-memory result, recompute after restart).
	PointJobsJournal = "jobs.journal"
	// PointJobsCell fires inside a batch cell attempt, before the cell runner
	// executes — the per-cell retry/poison machinery must contain it.
	PointJobsCell = "jobs.cell"
	// PointJobsSched fires inside the jobs scheduler's dispatch loop; a panic
	// here must not wedge dispatch (the scheduler relaunches itself).
	PointJobsSched = "jobs.sched"
)

// Points lists every injection point compiled into the tree, for -chaos-spec
// validation and documentation.
func Points() []string {
	return []string{
		PointEngineCell,
		PointJobsCell, PointJobsJournal, PointJobsSched,
		PointServiceCache, PointServiceHandler, PointServiceRun,
	}
}

// ErrInjected marks every error produced by the injector; tests and
// middleware match it with errors.Is to tell injected failures from real
// ones.
var ErrInjected = errors.New("fault injected")

// PanicValue is what an injected panic carries, so recovery sites (and the
// humans reading their logs) can tell an injected panic from an organic one.
type PanicValue struct {
	Point string
}

func (v PanicValue) String() string { return "fault: injected panic at " + v.Point }

// Mode is what a rule does when its coin lands.
type Mode int

const (
	ModeError Mode = iota
	ModePanic
	ModeLatency
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Rule arms one point with one failure mode.
type Rule struct {
	Point string
	Mode  Mode
	// Prob is the per-invocation firing probability in [0, 1].
	Prob float64
	// Sleep is the injected delay for ModeLatency rules.
	Sleep time.Duration
}

// pointState is the per-point runtime: a locked xrand stream (the decision
// sequence) plus observability counters.
type pointState struct {
	mu sync.Mutex
	// src is the decision stream; one draw per armed rule per Fire, in
	// lock order, keeps the sequence deterministic under any schedule.
	//lint:guardedby mu
	src    *xrand.Source
	rules  []Rule // armed before publication, read-only afterwards
	calls  atomic.Int64
	firing [3]atomic.Int64 // indexed by Mode
}

// Injector is an armed set of rules. The zero Injector is invalid; build
// one with NewInjector.
type Injector struct {
	seed   uint64
	spec   string
	points map[string]*pointState
}

// NewInjector arms rules under seed. Every rule's point must be a known
// injection point and its probability in [0, 1]; latency rules need a
// positive sleep.
func NewInjector(seed uint64, rules []Rule) (*Injector, error) {
	known := map[string]bool{}
	for _, p := range Points() {
		known[p] = true
	}
	inj := &Injector{seed: seed, points: map[string]*pointState{}}
	for _, r := range rules {
		if !known[r.Point] {
			return nil, fmt.Errorf("fault: unknown injection point %q (have %s)", r.Point, strings.Join(Points(), ", "))
		}
		if r.Prob < 0 || r.Prob > 1 {
			return nil, fmt.Errorf("fault: %s: probability %g outside [0,1]", r.Point, r.Prob)
		}
		if r.Mode == ModeLatency && r.Sleep <= 0 {
			return nil, fmt.Errorf("fault: %s: latency rule needs a positive duration", r.Point)
		}
		if r.Mode != ModeLatency && r.Sleep != 0 {
			return nil, fmt.Errorf("fault: %s: duration is only valid for latency rules", r.Point)
		}
		ps, ok := inj.points[r.Point]
		if !ok {
			ps = &pointState{src: xrand.New(xrand.Split(seed, "fault/"+r.Point))}
			inj.points[r.Point] = ps
		}
		ps.rules = append(ps.rules, r)
	}
	return inj, nil
}

// Seed returns the chaos seed the injector was armed with.
func (inj *Injector) Seed() uint64 { return inj.seed }

// Fire runs point's decision stream one step and returns the injected
// error, sleeps, or panics. nil means "no fault this time". Most callers
// use the package-level Fire against the process-wide injector; the method
// exists so tests can drive a private injector's streams directly.
func (inj *Injector) Fire(point string) error {
	ps, ok := inj.points[point]
	if !ok {
		return nil
	}
	ps.calls.Add(1)
	// One uniform draw per armed rule, under the point's lock: the decision
	// sequence is the stream's output order, whatever the caller schedule.
	var fired *Rule
	ps.mu.Lock()
	for i := range ps.rules {
		if ps.src.Float64() < ps.rules[i].Prob {
			fired = &ps.rules[i]
			break
		}
	}
	ps.mu.Unlock()
	if fired == nil {
		return nil
	}
	ps.firing[fired.Mode].Add(1)
	switch fired.Mode {
	case ModePanic:
		panic(PanicValue{Point: point})
	case ModeLatency:
		time.Sleep(fired.Sleep)
		return nil
	default:
		return fmt.Errorf("%w at %s", ErrInjected, point)
	}
}

// Stat is one point's observability snapshot.
type Stat struct {
	Point     string
	Calls     int64
	Errors    int64
	Panics    int64
	Latencies int64
}

// Stats reports per-point call and firing counts, sorted by point name.
func (inj *Injector) Stats() []Stat {
	out := make([]Stat, 0, len(inj.points))
	for name, ps := range inj.points {
		out = append(out, Stat{ //lint:ignore maporder out is sorted by point immediately below
			Point:     name,
			Calls:     ps.calls.Load(),
			Errors:    ps.firing[ModeError].Load(),
			Panics:    ps.firing[ModePanic].Load(),
			Latencies: ps.firing[ModeLatency].Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// active is the process-wide injector; nil means disabled and makes every
// Fire a no-op.
var active atomic.Pointer[Injector]

// Enable parses spec (see ParseSpec) and installs the resulting injector
// process-wide, replacing any previous one.
func Enable(seed uint64, spec string) (*Injector, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	inj, err := NewInjector(seed, rules)
	if err != nil {
		return nil, err
	}
	inj.spec = spec
	active.Store(inj)
	return inj, nil
}

// Disable removes the process-wide injector; Fire becomes a no-op again.
func Disable() { active.Store(nil) }

// Fire consults the process-wide injector at the named point. With no
// injector installed it is a single atomic load. Otherwise it returns an
// injected error, sleeps an injected latency, panics an injected panic —
// or returns nil, meaning the operation proceeds untouched.
func Fire(point string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.Fire(point)
}
