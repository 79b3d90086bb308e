// Command cadaptived serves the reproduction's experiments over HTTP: the
// long-running counterpart to the cadaptive CLI, backed by the same
// core.RunContext entry point, with a sharded, content-addressed result
// cache in front of the engine.
//
// Usage:
//
//	cadaptived -addr :8344 -workers 8 -cache 512 -cache-bytes 67108864 -max-runs 2 -timeout 60s
//
// Endpoints:
//
//	POST   /v1/run          run (or replay) an experiment: {"experiment":"E3","config":{"seed":1,"trials":20,"max_k":7}}
//	GET    /v1/experiments  list experiments and ablations (mirrors -list)
//	POST   /v1/jobs         submit a batch job: {"experiments":["E1"],"seed_start":1,"seed_count":8,"maxk_min":4,"maxk_max":7}
//	GET    /v1/jobs         list jobs; GET /v1/jobs/{id} streams progress + completed tables (?tables=0 for counts only)
//	DELETE /v1/jobs/{id}    cancel a job (journal-recorded)
//	GET    /healthz         liveness + queue depth + active job count
//	GET    /metrics         per-shard cache counters, run counts, engine utilisation, jobs ledger
//
// Batch jobs journal one fsync'd record per completed cell into
// -jobs-dir/jobs.journal; restarting with the same -jobs-dir resumes
// interrupted jobs, recomputing only the cells the crash destroyed. With no
// -jobs-dir, jobs run volatile. -jobs-max bounds active jobs, -job-retries
// the per-cell attempt budget before a cell is poisoned and its job
// degrades to "partial".
//
// The cache is bounded two ways — entries (-cache) and bytes (-cache-bytes,
// the sum of body lengths); either set to 0 disables storing entirely while
// keeping singleflight de-duplication. It is split over -cache-shards
// independent shards (0 = auto-size from GOMAXPROCS), each evicting in LRU
// order. Entries never expire: a cached body is a pure function of its key.
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener closes immediately,
// /healthz flips to 503 "draining", in-flight runs drain (bounded by
// -drain), then the process exits.
//
// Chaos mode injects seed-deterministic faults at the named points the
// binary already executes through (engine.cell, service.handler,
// service.run, service.cache), for rehearsing the failure model end to end:
//
//	cadaptived -chaos-seed 42 -chaos-spec 'engine.cell:panic:0.01,service.run:error:0.05'
//
// The same seed and spec replay the same per-point fault sequences.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/service"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadaptived:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cadaptived:", err)
		os.Exit(1)
	}
}

// daemonConfig is the parsed command line: the service options plus the
// daemon-level knobs that never reach service.New.
type daemonConfig struct {
	opts      service.Options
	workers   int
	drain     time.Duration
	chaosSeed uint64
	chaosSpec string
}

// parseFlags turns argv into a daemonConfig, translating flag conventions
// into Options conventions: flags spell "caching off" as 0 (and reject
// negatives), Options spells it as a negative (because its zero value must
// keep meaning "default").
func parseFlags(args []string) (daemonConfig, error) {
	fs := flag.NewFlagSet("cadaptived", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8344", "listen address")
		workers     = fs.Int("workers", 0, "engine worker bound (0 = GOMAXPROCS); results do not depend on it")
		cache       = fs.Int("cache", 512, "result-cache entry bound (0 = caching disabled)")
		cacheBytes  = fs.Int64("cache-bytes", 64<<20, "result-cache bytes bound, the sum of cached body lengths (0 = caching disabled)")
		cacheShards = fs.Int("cache-shards", 0, "cache shard count, rounded up to a power of two (0 = auto: 4×GOMAXPROCS)")
		maxRuns     = fs.Int("max-runs", 2, "maximum concurrent experiment runs (each fans out on the engine internally)")
		timeout     = fs.Duration("timeout", 60*time.Second, "per-run timeout, threaded into the engine as context cancellation (negative = unbounded)")
		jobsDir     = fs.String("jobs-dir", "", "batch-jobs journal directory (empty = volatile jobs, no crash resume)")
		jobsMax     = fs.Int("jobs-max", 8, "maximum concurrently active batch jobs; submissions beyond it are shed 503")
		jobRetries  = fs.Int("job-retries", 3, "per-cell attempt budget before the cell is poisoned and its job degrades to partial")
		drain       = fs.Duration("drain", 2*time.Minute, "graceful-shutdown drain budget for in-flight runs")
		chaosSeed   = fs.Uint64("chaos-seed", 0, "seed for deterministic fault injection (used with -chaos-spec)")
		chaosSpec   = fs.String("chaos-spec", "", "fault spec, e.g. 'engine.cell:panic:0.01,service.run:error:0.05,service.cache:latency:0.1:50ms'; empty = chaos off")
	)
	if err := fs.Parse(args); err != nil {
		return daemonConfig{}, err
	}
	if fs.NArg() > 0 {
		return daemonConfig{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *workers < 0 {
		return daemonConfig{}, fmt.Errorf("-workers %d < 0", *workers)
	}
	switch {
	case *cache < 0:
		return daemonConfig{}, fmt.Errorf("-cache %d < 0 (disable caching with -cache 0)", *cache)
	case *cacheBytes < 0:
		return daemonConfig{}, fmt.Errorf("-cache-bytes %d < 0 (disable caching with -cache-bytes 0)", *cacheBytes)
	case *cacheShards < 0:
		return daemonConfig{}, fmt.Errorf("-cache-shards %d < 0 (0 = auto)", *cacheShards)
	}
	if *chaosSpec == "" && *chaosSeed != 0 {
		return daemonConfig{}, errors.New("-chaos-seed without -chaos-spec does nothing; give a spec or drop the seed")
	}
	if *jobsMax < 1 {
		return daemonConfig{}, fmt.Errorf("-jobs-max %d < 1", *jobsMax)
	}
	if *jobRetries < 1 {
		return daemonConfig{}, fmt.Errorf("-job-retries %d < 1", *jobRetries)
	}

	opts := service.Options{
		Addr:              *addr,
		CacheEntries:      *cache,
		CacheBytes:        *cacheBytes,
		CacheShards:       *cacheShards,
		MaxConcurrentRuns: *maxRuns,
		RunTimeout:        *timeout,
		JobsDir:           *jobsDir,
		MaxJobs:           *jobsMax,
		JobRetries:        *jobRetries,
	}
	// 0 means "off" at the flag level but "default" at the Options level;
	// the Options opt-in for off is negative.
	if *cache == 0 {
		opts.CacheEntries = -1
	}
	if *cacheBytes == 0 {
		opts.CacheBytes = -1
	}
	return daemonConfig{
		opts:      opts,
		workers:   *workers,
		drain:     *drain,
		chaosSeed: *chaosSeed,
		chaosSpec: *chaosSpec,
	}, nil
}

func run(cfg daemonConfig) error {
	engine.SetSharedWorkers(cfg.workers)

	if cfg.chaosSpec != "" {
		inj, err := fault.Enable(cfg.chaosSeed, cfg.chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos-spec: %w", err)
		}
		defer fault.Disable()
		var armed []string
		for _, st := range inj.Stats() {
			armed = append(armed, st.Point)
		}
		log.Printf("cadaptived: CHAOS MODE armed (seed=%d, points=%v, spec=%q) — injected faults are deliberate",
			cfg.chaosSeed, armed, cfg.chaosSpec)
	}

	srv, err := service.New(cfg.opts)
	if err != nil {
		return err
	}

	errc := make(chan error, 1)
	go func() {
		// A panic escaping this goroutine would kill the process without
		// running main's shutdown path; surface it as a server error instead
		// (errc is buffered, so the send cannot block).
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("listener goroutine panicked: %v", r)
			}
		}()
		log.Printf("cadaptived: listening on %s (workers=%d, cache=%d entries/%d bytes/%d shards, max-runs=%d, timeout=%v)",
			cfg.opts.Addr, engine.Shared().Workers(), cfg.opts.CacheEntries, cfg.opts.CacheBytes,
			cfg.opts.CacheShards, cfg.opts.MaxConcurrentRuns, cfg.opts.RunTimeout)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case sig := <-sigc:
		log.Printf("cadaptived: %v, draining in-flight runs (budget %v)", sig, cfg.drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("cadaptived: drained, bye")
		return nil
	}
}
