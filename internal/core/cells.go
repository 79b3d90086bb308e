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

// sweep runs one Monte-Carlo cell per (row r, level k, trial) on g, for
// r < rows, k = kMin..kMax and trial < trials(k), and returns the results
// as out[r][k-kMin][trial]. The cells are laid out row-major and each gets
// its worker's scratch state; cell derives its seed from its coordinates,
// so the grid is identical for any worker count.
func sweep(g *engine.Group, rows, kMin, kMax int, trials func(k int) int,
	cell func(ws *workerState, r, k, trial int) (float64, error)) ([][][]float64, error) {
	type coord struct{ r, k, trial int }
	var cells []coord
	out := make([][][]float64, rows)
	for r := range out {
		out[r] = make([][]float64, kMax-kMin+1)
		for k := kMin; k <= kMax; k++ {
			out[r][k-kMin] = make([]float64, trials(k))
			for trial := range out[r][k-kMin] {
				cells = append(cells, coord{r, k, trial})
			}
		}
	}
	workers := newWorkerStates(g)
	if err := g.Map(len(cells), func(i, w int) error {
		c := cells[i]
		v, err := cell(workers[w], c.r, c.k, c.trial)
		out[c.r][c.k-kMin][c.trial] = v
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// finishMetrics copies a group's execution accounting onto the table.
func finishMetrics(t *Table, g *engine.Group) {
	t.Metrics.Cells = g.Cells()
	t.Metrics.BusySeconds = g.Busy().Seconds()
}
