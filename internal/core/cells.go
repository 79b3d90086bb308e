package core

import (
	"repro/internal/engine"
	"repro/internal/regular"
	"repro/internal/smoothing"
)

// Per-worker scratch for the Monte-Carlo runners: the engine hands every
// cell a stable worker index, and these states let a worker reuse its
// symbolic executors (one per problem size) and its smoothing sources
// across all the cells it executes, keeping the hot paths allocation-light.
// The sources read the shared worst-case profiles in place; only the
// shuffle keeps a per-worker buffer, one byte per box.

type workerState struct {
	execs     map[int64]*regular.Exec // keyed by problem size n
	shuffled  smoothing.ShuffledSource
	perturbed smoothing.PerturbedSource
	rotated   smoothing.RotatedSource
}

// newWorkerStates allocates one scratch state per possible worker of g.
func newWorkerStates(g *engine.Group) []*workerState {
	ws := make([]*workerState, g.Workers())
	for i := range ws {
		ws[i] = &workerState{execs: map[int64]*regular.Exec{}}
	}
	return ws
}

// exec returns the worker's cached executor for (spec, n), creating it on
// first use. Callers within one experiment always pass the same spec, so
// keying by n alone is sound.
func (w *workerState) exec(spec regular.Spec, n int64) (*regular.Exec, error) {
	if e, ok := w.execs[n]; ok {
		return e, nil
	}
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return nil, err
	}
	w.execs[n] = e
	return e, nil
}

// finishMetrics copies a group's execution accounting onto the table.
func finishMetrics(t *Table, g *engine.Group) {
	t.Metrics.Cells = g.Cells()
	t.Metrics.BusySeconds = g.Busy().Seconds()
}
