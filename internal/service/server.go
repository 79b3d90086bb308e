// Package service implements cadaptived, the long-running HTTP front-end
// over the experiment engine. It turns the one-shot CLI reproduction into a
// query service: clients POST (experiment, config, seed) and get back the
// same versioned Table JSON the CLI emits, served from a content-addressed
// result cache whenever the identical run has been computed before.
//
// The design leans entirely on the determinism guarantee: every
// experiment is a pure function of the schema version, its ID and the
// config fields it declares as inputs (a subset of seed, trials and maxK;
// it runs with the others zeroed), so a canonical hash of exactly those
// (core.CacheKey) is a sound address for the result bytes, and requests
// that differ only in fields the experiment does not read share one
// entry. On top of that the server adds
// singleflight de-duplication (concurrent identical requests run once), a
// semaphore bounding how many distinct experiments execute at a time,
// per-run timeouts threaded as context cancellation into engine.Map, and
// graceful shutdown that drains in-flight runs.
//
// Failure model. The server is built to degrade, never die: a panic
// anywhere in request handling is contained by recovery middleware (500,
// counted in /metrics), a panic inside a run is contained at the
// singleflight boundary so coalesced waiters get an error instead of a
// deadlock, and when every run slot is busy a bounded admission queue
// sheds the overflow with 503 + Retry-After instead of queueing without
// limit. The injection points of internal/fault are compiled into these
// exact paths, so the chaos suite exercises the same code production runs.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/jobs"
)

// ErrOverloaded is returned (and mapped to 503 + Retry-After) when every
// run slot is busy and the admission queue is full: the request is shed
// immediately instead of waiting unboundedly. Deterministic clients
// (Client) back off and retry on it.
var ErrOverloaded = errors.New("service: overloaded (run queue full)")

// Options configures a Server. The zero value of any field selects its
// default.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":8344").
	Addr string
	// CacheEntries bounds the result cache's entry count (default 512,
	// split across shards). A negative value disables caching entirely —
	// requests still coalesce through singleflight, but nothing is stored.
	// (The zero value must keep meaning "default", so "off" is the
	// negative opt-in, mirroring RunTimeout; the cadaptived flag spells it
	// `-cache 0` and maps it here.)
	CacheEntries int
	// CacheBytes bounds the sum of cached body lengths (default 64 MiB,
	// split across shards). Bodies, not entries, are what memory is spent
	// on — a dim-4096 E9 table is ~1000× an E1 smoke table. Negative
	// disables caching, exactly as for CacheEntries.
	CacheBytes int64
	// CacheShards is the shard count, rounded up to a power of two
	// (default: the smallest power of two >= 4×GOMAXPROCS). Each shard has
	// its own mutex, singleflight table and LRU order, so requests for
	// different keys contend only 1/Nth as often.
	CacheShards int
	// MaxConcurrentRuns bounds how many distinct experiment runs execute at
	// once (default 2). Each run already fans out across the shared engine
	// pool internally, so a small bound keeps the pool from thrashing
	// between unrelated requests.
	MaxConcurrentRuns int
	// MaxQueuedRuns bounds how many runs may *wait* for a slot beyond
	// MaxConcurrentRuns (default 32). When the queue is full, further run
	// requests are shed with 503 + Retry-After rather than queued without
	// limit — a loaded server must stay answerable.
	MaxQueuedRuns int
	// RunTimeout bounds a single experiment run. It is threaded as context
	// cancellation into the engine fan-out; a run that exceeds it returns
	// 504 and is not cached. Zero selects the 60s default; a negative
	// value means "no timeout" — runs are unbounded (an explicit opt-in,
	// because the zero value must keep meaning "default", not "forever").
	RunTimeout time.Duration
	// JobsDir is the batch-jobs journal directory; "" (the default) runs
	// jobs volatile — they work, but do not survive a restart.
	JobsDir string
	// MaxJobs bounds concurrently active batch jobs; submissions beyond it
	// are shed 503. Default 8; negative rejects every submission.
	MaxJobs int
	// JobRetries is the per-cell attempt budget before a batch cell is
	// poisoned and its job degrades to "partial". Default 3.
	JobRetries int
	// JobConcurrency bounds batch cells in flight across all jobs; batch
	// work shares the run admission queue with interactive requests, so
	// this caps how much of that queue background work may occupy.
	// Default 2.
	JobConcurrency int
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8344"
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 512
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.CacheShards == 0 {
		o.CacheShards = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrentRuns == 0 {
		o.MaxConcurrentRuns = 2
	}
	if o.MaxQueuedRuns == 0 {
		o.MaxQueuedRuns = 32
	}
	if o.RunTimeout == 0 {
		o.RunTimeout = 60 * time.Second
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 8
	}
	if o.JobRetries == 0 {
		o.JobRetries = 3
	}
	if o.JobConcurrency == 0 {
		o.JobConcurrency = 2
	}
	return o
}

// Server is the cadaptived HTTP service.
type Server struct {
	opts     Options
	cache    *shardedCache
	sem      chan struct{} // bounds concurrent experiment runs
	met      metrics
	jobs     *jobs.Manager
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in recovery middleware
	http     *http.Server
	draining atomic.Bool // set before http.Server.Shutdown begins

	// runFn is core.RunContext; tests swap in controllable runs.
	runFn func(ctx context.Context, id string, cfg core.Config) (*core.Table, error)
}

// New validates opts and assembles a server (not yet listening).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.MaxConcurrentRuns < 1 {
		return nil, fmt.Errorf("service: MaxConcurrentRuns %d < 1", opts.MaxConcurrentRuns)
	}
	if opts.MaxQueuedRuns < 1 {
		return nil, fmt.Errorf("service: MaxQueuedRuns %d < 1 (shedding needs at least one queue slot)", opts.MaxQueuedRuns)
	}
	if opts.CacheShards < 1 {
		return nil, fmt.Errorf("service: CacheShards %d < 1", opts.CacheShards)
	}
	// Negative bounds are the "caching off" opt-in; the cache constructor
	// spells off as 0 and rejects negatives, so clamp here.
	entries, bytes := int64(opts.CacheEntries), opts.CacheBytes
	if entries < 0 || bytes < 0 {
		entries, bytes = 0, 0
	}
	cache, err := newShardedCache(cacheConfig{
		shards:     opts.CacheShards,
		maxEntries: entries,
		maxBytes:   bytes,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		cache: cache,
		sem:   make(chan struct{}, opts.MaxConcurrentRuns),
		runFn: core.RunContext,
	}
	// Batch cells run through the exact cached path interactive requests
	// use: they share the content-addressed cache, the singleflight, and
	// the bounded admission queue, so duplicate submissions and retried
	// cells are free, and admission sheds surface to the jobs layer as
	// transient (retry without burning the cell's attempt budget).
	jm, err := jobs.Open(jobs.Options{
		Dir:             opts.JobsDir,
		MaxJobs:         opts.MaxJobs,
		Retries:         opts.JobRetries,
		CellConcurrency: opts.JobConcurrency,
		Transient:       func(err error) bool { return errors.Is(err, ErrOverloaded) },
		Run: func(ctx context.Context, id string, cfg core.Config) ([]byte, error) {
			body, _, _, err := s.runCached(ctx, id, cfg)
			return body, err
		},
	})
	if err != nil {
		return nil, err
	}
	s.jobs = jm
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.withRecovery(s.mux)
	s.http = &http.Server{Addr: opts.Addr, Handler: s.handler}
	return s, nil
}

// Handler exposes the route table — wrapped in the panic-isolating
// middleware, exactly as ListenAndServe serves it (httptest servers,
// embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// withRecovery is the outermost middleware: a panic anywhere below it —
// handler code, encoding, an injected service.handler fault — becomes a
// 500 with a JSON body and a bumped panic counter, never a dead process.
// net/http would recover a handler panic too, but by killing the
// connection mid-response; this keeps the reply well-formed for clients
// that retry on status codes.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Add(1)
				// If the handler already wrote a header this WriteHeader is
				// superfluous (logged by net/http, harmless); the common
				// panic-before-write case gets a clean 500.
				writeJSON(w, http.StatusInternalServerError, errorResponse{
					Error: fmt.Sprintf("internal error: panic: %v", rec),
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ListenAndServe serves on Options.Addr until Shutdown or failure.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on l until Shutdown or failure.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown marks the server draining (so /healthz flips to 503 and load
// balancers stop routing here), then stops accepting new connections and
// blocks until every in-flight request — including the experiment run
// inside it — completes, or ctx expires. Runs are never killed by
// shutdown: their handlers finish and their results land in the cache
// before Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Drain the batch layer first: no new cells dispatch, in-flight cells
	// get the remaining budget to finish and journal. Close writes no
	// terminal records, so interrupted jobs resume on the next start —
	// shutdown is indistinguishable from a crash as far as the journal is
	// concerned, by design.
	jerr := s.jobs.Close(ctx)
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return jerr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquireRunSlot admits one run through the bounded queue + semaphore.
// A free slot is taken immediately; otherwise the caller waits in the
// admission queue — unless it is full, in which case the request is shed
// with ErrOverloaded. Returns a release func on success.
func (s *Server) acquireRunSlot(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if q := s.met.queued.Add(1); q > int64(s.opts.MaxQueuedRuns) {
		s.met.queued.Add(-1)
		return nil, fmt.Errorf("%w: %d runs in flight, %d queued", ErrOverloaded, len(s.sem), s.opts.MaxQueuedRuns)
	}
	defer s.met.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runCached computes (or replays) the result body for one run request.
// reqCtx bounds queueing and coalesced waiting; the run itself executes
// under the server's RunTimeout, detached from the individual client,
// because its result is shared by every present and future request for the
// same key.
//
// Accounting contract (asserted by the chaos suite): every call increments
// requests and exactly one of hits / misses / coalesced / sheds, so
// hits + misses + coalesced + sheds == requests at every quiescent point.
func (s *Server) runCached(reqCtx context.Context, id string, cfg core.Config) ([]byte, string, outcome, error) {
	s.met.requests.Add(1)
	key := core.CacheKey(id, cfg)
	body, oc, err := s.cache.do(reqCtx, key, func() ([]byte, error) {
		release, aerr := s.acquireRunSlot(reqCtx)
		if aerr != nil {
			return nil, aerr
		}
		defer release()

		if ferr := fault.Fire(fault.PointServiceRun); ferr != nil {
			return nil, ferr
		}

		s.met.runsStarted.Add(1)
		s.met.inFlight.Add(1)
		defer s.met.inFlight.Add(-1)

		// RunTimeout <= 0 means unbounded (Options documents the opt-in);
		// either way the run is detached from the individual client,
		// because its result is shared.
		runCtx := context.WithoutCancel(reqCtx)
		if s.opts.RunTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(runCtx, s.opts.RunTimeout)
			defer cancel()
		}
		t, err := s.runFn(runCtx, id, cfg)
		if err != nil {
			s.met.runsFailed.Add(1)
			return nil, err
		}
		if ferr := fault.Fire(fault.PointServiceCache); ferr != nil {
			s.met.runsFailed.Add(1)
			return nil, ferr
		}
		s.met.recordRun(t)
		return json.Marshal(t)
	})
	if oc == outcomeMiss && errors.Is(err, ErrOverloaded) {
		oc = outcomeShed // the leader was shed at admission, it never ran
	}
	// Sheds are admission-level and live in the server ledger; everything
	// else is attributed to the key's shard, whose counters /metrics sums
	// back into the conserved totals.
	if oc == outcomeShed {
		s.met.sheds.Add(1)
	} else {
		s.cache.record(key, oc)
	}
	return body, key, oc, err
}

// Workers reports the engine worker bound, for /metrics.
func (s *Server) workers() int { return engine.Shared().Workers() }
