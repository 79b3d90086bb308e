package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/jobs"
)

// metrics aggregates the service's observability counters. The cache
// outcome counters (hits/misses/coalesced and evictions) live in the
// shards themselves — per-shard atomics, summed at snapshot
// time — so the hot path never funnels through one shared counter word.
// What remains here is the admission-level ledger (requests, sheds,
// panics, queue depth), the run counts, and the engine accumulators
// (float seconds from Table.Metrics), folded in under a mutex once per
// completed run.
type metrics struct {
	// Degradation counters. requests counts every run request admitted to
	// the cache/run path; sheds counts the ones rejected by the bounded
	// admission queue; panics counts handler panics the recovery middleware
	// contained; queued is the current admission-queue depth (a gauge).
	// Conservation: hits + misses + coalesced + sheds == requests, where
	// the first three are summed over shards.
	requests atomic.Int64
	sheds    atomic.Int64
	panics   atomic.Int64
	queued   atomic.Int64

	runsStarted   atomic.Int64
	runsCompleted atomic.Int64
	runsFailed    atomic.Int64
	inFlight      atomic.Int64

	mu sync.Mutex
	//lint:guardedby mu
	cells int64
	//lint:guardedby mu
	busySeconds float64
	//lint:guardedby mu
	wallSeconds float64
}

// recordRun folds one completed run's engine accounting into the totals.
func (m *metrics) recordRun(t *core.Table) {
	m.runsCompleted.Add(1)
	m.mu.Lock()
	m.cells += t.Metrics.Cells
	m.busySeconds += t.Metrics.BusySeconds
	m.wallSeconds += t.Metrics.WallSeconds
	m.mu.Unlock()
}

// metricsSnapshot is the GET /metrics response body.
type metricsSnapshot struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		// Evictions counts bound-pressure removals.
		Evictions int64 `json:"evictions"`
		Entries   int   `json:"entries"`
		Capacity  int   `json:"capacity"`
		Bytes     int64 `json:"bytes"`
		BytesCap  int64 `json:"bytes_capacity"`
		// Shards is the per-shard breakdown; the totals above are its
		// column sums, so conservation checks can be run per shard too.
		Shards []shardStats `json:"shards"`
	} `json:"cache"`
	// Service is the degradation ledger. Requests counts run requests
	// reaching the cache/run path; Sheds the ones rejected 503 by the full
	// admission queue; Panics the handler panics contained by middleware;
	// QueueDepth the runs currently waiting for a slot. At any quiescent
	// point Hits + Misses + Coalesced + Sheds == Requests.
	Service struct {
		Requests      int64 `json:"requests"`
		Sheds         int64 `json:"sheds"`
		Panics        int64 `json:"panics"`
		QueueDepth    int64 `json:"queue_depth"`
		QueueCapacity int   `json:"queue_capacity"`
		Draining      bool  `json:"draining"`
	} `json:"service"`
	Runs struct {
		Started   int64 `json:"started"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		InFlight  int64 `json:"in_flight"`
	} `json:"runs"`
	Engine struct {
		Workers     int     `json:"workers"`
		Cells       int64   `json:"cells_total"`
		BusySeconds float64 `json:"busy_seconds_total"`
		WallSeconds float64 `json:"wall_seconds_total"`
		// Utilisation is cumulative busy worker-seconds over the worker-
		// seconds the completed runs had available — the service-lifetime
		// analogue of Table.Metrics.Utilisation.
		Utilisation float64 `json:"utilisation"`
	} `json:"engine"`
	// Jobs is the batch-jobs conservation ledger. At drain
	// (cells_in_flight == cells_pending == 0):
	// cells_submitted == cells_completed + cells_poisoned + cells_cancelled,
	// and submitted == active + completed + partial + cancelled — the jobs
	// analogue of the cache ledger's conservation, asserted by the chaos
	// suite.
	Jobs jobs.Ledger `json:"jobs"`
}

// snapshot assembles the exported view from the shard aggregate and the
// server-level ledgers.
func (m *metrics) snapshot(cs cacheStats, opts Options, workers int, draining bool, jl jobs.Ledger) metricsSnapshot {
	var s metricsSnapshot
	s.Cache.Hits = cs.Hits
	s.Cache.Misses = cs.Misses
	s.Cache.Coalesced = cs.Coalesced
	s.Cache.Evictions = cs.Evictions
	s.Cache.Entries = cs.Entries
	s.Cache.Capacity = opts.CacheEntries
	s.Cache.Bytes = cs.Bytes
	s.Cache.BytesCap = opts.CacheBytes
	s.Cache.Shards = cs.Shards
	s.Service.Requests = m.requests.Load()
	s.Service.Sheds = m.sheds.Load()
	s.Service.Panics = m.panics.Load()
	s.Service.QueueDepth = m.queued.Load()
	s.Service.QueueCapacity = opts.MaxQueuedRuns
	s.Service.Draining = draining
	s.Runs.Started = m.runsStarted.Load()
	s.Runs.Completed = m.runsCompleted.Load()
	s.Runs.Failed = m.runsFailed.Load()
	s.Runs.InFlight = m.inFlight.Load()
	s.Engine.Workers = workers
	m.mu.Lock()
	s.Engine.Cells = m.cells
	s.Engine.BusySeconds = m.busySeconds
	s.Engine.WallSeconds = m.wallSeconds
	m.mu.Unlock()
	if s.Engine.WallSeconds > 0 && workers > 0 {
		s.Engine.Utilisation = s.Engine.BusySeconds / (s.Engine.WallSeconds * float64(workers))
	}
	s.Jobs = jl
	return s
}
