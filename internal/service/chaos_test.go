package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
)

// chaosSpec arms every injection point the request path crosses: handler
// panics (contained by middleware), run errors and engine-cell panics
// (contained by runCell), and cache-stage faults including latency. The
// probabilities are high enough that a 60-request storm reliably sees
// faults of each kind, low enough that retries converge fast.
const chaosSpec = "service.handler:panic:0.15," +
	"service.run:error:0.15," +
	"service.run:latency:0.5:5ms," + // holds the run slot, so the admission queue actually fills
	"engine.cell:panic:0.02," +
	"service.cache:error:0.10," +
	"service.cache:latency:0.20:2ms," +
	// The batch layer's own blast radii: cell attempts failing (consumes
	// retry budget, may poison), journal appends failing (job proceeds
	// volatile, counted), and scheduler-loop panics (contained, loop
	// restarted).
	"jobs.cell:error:0.10," +
	"jobs.journal:error:0.05," +
	"jobs.sched:panic:0.05"

// TestChaosStorm is the capstone for the failure model: a deterministic
// fault storm of concurrent requests against a real Server, driven through
// retrying clients. It asserts the schedule-independent invariants — the
// exact fault placement varies with goroutine interleaving, but these must
// hold for every schedule:
//
//   - the process survives (any escaped panic fails the test run outright)
//   - no deadlock: every request completes (the test finishing is the proof;
//     a wedged singleflight key would hang a client forever)
//   - every response has a valid status: 200 or a 5xx with a JSON error body
//   - the metrics ledger conserves: hits + misses + coalesced + sheds ==
//     requests, and the admission queue drains to depth 0
//   - retried results are byte-identical to a fault-free run up to the
//     measured timing metrics: faults can delay an answer, never corrupt one
func TestChaosStorm(t *testing.T) {
	const (
		stormGoroutines = 12
		requestsPerG    = 5
		// 7 distinct cache keys; repeats exercise hits and coalescing. Being
		// coprime with requestsPerG, the first wave of 12 goroutines spreads
		// over all 7 keys at once — more concurrent distinct keys than run
		// slot + queue (1 + 4), so the admission queue genuinely sheds.
		configs = 7
	)

	cfgFor := func(i int) (string, core.Config) {
		cfg := core.DefaultConfig()
		cfg.Seed, cfg.Trials, cfg.MaxK = uint64(7+i%configs), 2, 4
		return "E7", cfg
	}
	// The storm's coverage rests on those keys being distinct: E7 reads
	// seed, trials and max_k, so each seed is its own content address. An
	// experiment that ignores the seed would fold the storm onto one key.
	keys := make(map[string]bool)
	for i := 0; i < configs; i++ {
		id, cfg := cfgFor(i)
		keys[core.CacheKey(id, cfg)] = true
	}
	if len(keys) != configs {
		t.Fatalf("storm configs span %d cache keys, want %d", len(keys), configs)
	}

	// normalize strips the one run-dependent part of a table body — the
	// engine timing metrics, measured wall clock — leaving exactly the
	// deterministic content the cache key promises. (Within one server the
	// raw bytes are stable because the cache replays them; across the
	// baseline and chaos servers only the normalized form can match.)
	normalize := func(raw []byte) string {
		var tb core.Table
		if err := json.Unmarshal(raw, &tb); err != nil {
			t.Fatalf("response table is not a valid core.Table: %v", err)
		}
		tb.Metrics = core.Metrics{}
		out, err := json.Marshal(&tb)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	// Fault-free baseline bodies (normalized), one per distinct config.
	baseline := make(map[uint64]string)
	{
		s, err := New(Options{Addr: "127.0.0.1:0", MaxConcurrentRuns: 2, CacheEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s.Handler())
		c := NewClient(srv.URL)
		c.HTTPClient = srv.Client()
		c.sleep = func(time.Duration) {}
		for i := 0; i < configs; i++ {
			id, cfg := cfgFor(i)
			resp, err := c.Run(context.Background(), id, cfg)
			if err != nil {
				t.Fatalf("baseline run %d: %v", i, err)
			}
			baseline[cfg.Seed] = normalize(resp.Table)
		}
		srv.Close()
	}

	if _, err := fault.Enable(1234, chaosSpec); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	// A small queue in front of few run slots makes real sheds likely under
	// 12 concurrent clients while conservation still has to balance. Four
	// cache shards put the storm on the sharded paths for real: keys spread
	// over shards, so singleflight tables, LRU eviction, and the
	// per-shard counters all run concurrently under the fault spec.
	// JobsDir arms the journal for real, so jobs.journal faults hit actual
	// fsync'd appends and the jobs ledger is fed by the same durable path
	// production uses.
	s, err := New(Options{Addr: "127.0.0.1:0", MaxConcurrentRuns: 1, MaxQueuedRuns: 4, CacheEntries: 16, CacheShards: 4, JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var (
		mu       sync.Mutex
		statuses = map[int]int{} // terminal RetryError statuses, by code
		failures []string
		jobIDs   []string
	)
	var wg sync.WaitGroup
	for g := 0; g < stormGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("storm goroutine %d panicked: %v", g, r))
					mu.Unlock()
				}
			}()
			c := NewClient(srv.URL)
			c.HTTPClient = srv.Client()
			c.Seed = uint64(g) // deterministic, distinct jitter stream per client
			c.MaxAttempts = 8
			c.sleep = func(time.Duration) {} // retry instantly; latency faults still sleep server-side
			// Every third client also submits a batch job over the same 7
			// storm keys, so batch cells and interactive requests contend
			// for the same admission queue, singleflight, and cache under
			// the fault spec. One job gets cancelled mid-storm to exercise
			// the cancellation arm of the ledger.
			if g%3 == 0 {
				st, err := c.SubmitJob(context.Background(), jobs.Spec{
					Experiments: []string{"E7"},
					SeedStart:   7, SeedCount: configs,
					Trials:  2,
					MaxKMin: 4, MaxKMax: 4,
					Weight: 1 + g%3 + g/3, // distinct WRR weights across jobs
				})
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("goroutine %d: job submit: %v", g, err))
					mu.Unlock()
				} else {
					mu.Lock()
					jobIDs = append(jobIDs, st.ID)
					mu.Unlock()
					if g == 9 {
						if _, err := c.CancelJob(context.Background(), st.ID); err != nil {
							mu.Lock()
							failures = append(failures, fmt.Sprintf("goroutine %d: job cancel: %v", g, err))
							mu.Unlock()
						}
					}
				}
			}
			for r := 0; r < requestsPerG; r++ {
				id, cfg := cfgFor(g*requestsPerG + r)
				resp, err := c.Run(context.Background(), id, cfg)
				if err != nil {
					// Exhausting retries under heavy faults is legitimate;
					// what it must NOT be is a non-5xx failure.
					if re, ok := err.(*RetryError); ok {
						if re.LastStatus != 0 && re.LastStatus < 500 {
							mu.Lock()
							failures = append(failures, fmt.Sprintf("goroutine %d: terminal non-5xx status %d: %s", g, re.LastStatus, re.LastBody))
							mu.Unlock()
						}
						mu.Lock()
						statuses[re.LastStatus]++
						mu.Unlock()
					} else {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("goroutine %d: unexpected error type %T: %v", g, err, err))
						mu.Unlock()
					}
					continue
				}
				if normalize(resp.Table) != baseline[cfg.Seed] {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("goroutine %d: table for seed %d differs from fault-free baseline", g, cfg.Seed))
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	t.Logf("terminal retry-exhausted statuses: %v", statuses)

	// With chaos still armed, a sequential pass with generous retries must
	// converge: errors are never cached, success is (sticky), so every key
	// eventually serves the baseline bytes through the fault storm.
	final := NewClient(srv.URL)
	final.HTTPClient = srv.Client()
	final.Seed = 999
	final.MaxAttempts = 50
	final.sleep = func(time.Duration) {}
	for i := 0; i < configs; i++ {
		id, cfg := cfgFor(i)
		resp, err := final.Run(context.Background(), id, cfg)
		if err != nil {
			t.Fatalf("post-storm run for seed %d never converged: %v", cfg.Seed, err)
		}
		if normalize(resp.Table) != baseline[cfg.Seed] {
			t.Errorf("post-storm table for seed %d differs from fault-free baseline", cfg.Seed)
		}
	}

	// Every storm job must reach a terminal state through the chaos, and its
	// per-job cell counts must account for every cell.
	if len(jobIDs) == 0 {
		t.Fatal("storm submitted no jobs; the batch mix exercised nothing")
	}
	for _, id := range jobIDs {
		wctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err := final.WaitJob(wctx, id)
		cancel()
		if err != nil {
			t.Fatalf("job %s never reached a terminal state: %v", id, err)
		}
		switch st.Status {
		case jobs.JobCompleted, jobs.JobPartial, jobs.JobCancelled:
		default:
			t.Errorf("job %s finished with unexpected status %q", id, st.Status)
		}
	}

	// Terminal job status can precede the last detached cell resolving, so
	// drain is a metrics condition, not a status condition: poll until the
	// jobs ledger shows nothing pending or in flight, then hold it to exact
	// conservation — submitted work is completed, poisoned, or cancelled,
	// never lost, whatever faults fired.
	var jl jobs.Ledger
	for deadline := time.Now().Add(60 * time.Second); ; {
		jl = fetchMetrics(t, srv.URL).Jobs
		if jl.JobsActive == 0 && jl.CellsInFlight == 0 && jl.CellsPending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs ledger never drained: %+v", jl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if jl.JobsSubmitted != int64(len(jobIDs)) {
		t.Errorf("jobs submitted ledger %d, want %d", jl.JobsSubmitted, len(jobIDs))
	}
	if got := jl.JobsCompleted + jl.JobsPartial + jl.JobsCancelled; got != jl.JobsSubmitted {
		t.Errorf("jobs conservation violated: completed(%d) + partial(%d) + cancelled(%d) = %d, want submitted(%d)",
			jl.JobsCompleted, jl.JobsPartial, jl.JobsCancelled, got, jl.JobsSubmitted)
	}
	if got := jl.CellsCompleted + jl.CellsPoisoned + jl.CellsCancelled; got != jl.CellsSubmitted {
		t.Errorf("cells conservation violated: completed(%d) + poisoned(%d) + cancelled(%d) = %d, want submitted(%d)",
			jl.CellsCompleted, jl.CellsPoisoned, jl.CellsCancelled, got, jl.CellsSubmitted)
	}
	// Completed batch cells were served by the same cached path as the
	// interactive storm, so their tables must equal the baseline bytes.
	for _, id := range jobIDs {
		st, err := final.Job(context.Background(), id, true)
		if err != nil {
			t.Fatalf("job %s final status: %v", id, err)
		}
		if st.Completed+st.Poisoned+st.Cancelled != st.Total || st.Running != 0 || st.Pending != 0 {
			t.Errorf("job %s cell counts do not account for every cell: %+v", id, st)
		}
		for _, cell := range st.Cells {
			if cell.State != jobs.CellDone.String() || len(cell.Table) == 0 {
				continue
			}
			if normalize(cell.Table) != baseline[cell.Seed] {
				t.Errorf("job %s cell seed %d differs from fault-free baseline", id, cell.Seed)
			}
		}
	}
	t.Logf("jobs ledger: %+v", jl)

	// The conservation ledger must balance exactly, whatever the schedule did.
	m := fetchMetrics(t, srv.URL)
	svc, cache := m.Service, m.Cache
	if got := cache.Hits + cache.Misses + cache.Coalesced + svc.Sheds; got != svc.Requests {
		t.Errorf("conservation violated: hits(%d) + misses(%d) + coalesced(%d) + sheds(%d) = %d, want requests(%d)",
			cache.Hits, cache.Misses, cache.Coalesced, svc.Sheds, got, svc.Requests)
	}
	// The totals must be exactly the column sums of the per-shard
	// breakdown — the conserved ledger survives sharding by construction,
	// not by coincidence.
	if len(cache.Shards) != 4 {
		t.Fatalf("shard breakdown has %d entries, want 4", len(cache.Shards))
	}
	var sh shardStats
	for _, st := range cache.Shards {
		sh.Hits += st.Hits
		sh.Misses += st.Misses
		sh.Coalesced += st.Coalesced
	}
	if sh.Hits != cache.Hits || sh.Misses != cache.Misses || sh.Coalesced != cache.Coalesced {
		t.Errorf("shard sums (%d/%d/%d) disagree with totals (%d/%d/%d)",
			sh.Hits, sh.Misses, sh.Coalesced, cache.Hits, cache.Misses, cache.Coalesced)
	}
	if svc.QueueDepth != 0 {
		t.Errorf("admission queue depth %d after storm, want 0", svc.QueueDepth)
	}
	if svc.Requests == 0 {
		t.Error("storm recorded zero requests; the test exercised nothing")
	}
	t.Logf("ledger: requests=%d hits=%d misses=%d coalesced=%d sheds=%d panics=%d",
		svc.Requests, cache.Hits, cache.Misses, cache.Coalesced, svc.Sheds, svc.Panics)

	// The server must still be plainly healthy (not draining, not wedged),
	// and the health body's load figures must agree with the drained state.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after storm: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz after storm: status %d, want 200", hresp.StatusCode)
	}
	var health struct {
		Status     string `json:"status"`
		QueueDepth int64  `json:"queue_depth"`
		ActiveJobs int64  `json:"active_jobs"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz body is not JSON: %v", err)
	}
	if health.Status != "ok" || health.QueueDepth != 0 || health.ActiveJobs != 0 {
		t.Errorf("healthz after drain: %+v, want status ok with zero queue depth and active jobs", health)
	}
}

// TestChaosSeedDeterminism pins the replayability claim at the fault layer:
// the same (seed, spec) yields identical per-point decision sequences, a
// different seed diverges. (Under concurrency the *schedule* assigns those
// decisions to callers; the sequences themselves are pure.)
func TestChaosSeedDeterminism(t *testing.T) {
	draw := func(seed uint64) []string {
		inj, err := fault.NewInjector(seed, mustParse(t, chaosSpec))
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		for i := 0; i < 200; i++ {
			for _, pt := range fault.Points() {
				func() {
					defer func() { recover() }() // injected panics are part of the sequence
					if err := inj.Fire(pt); err != nil {
						seq = append(seq, fmt.Sprintf("%d:%s:err", i, pt))
					}
				}()
			}
		}
		return seq
	}
	a, b, c := draw(42), draw(42), draw(43)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed produced different fault sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical fault sequences")
	}
}

// fetchMetrics decodes GET /metrics into the snapshot struct.
func fetchMetrics(t *testing.T, baseURL string) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return m
}

func mustParse(t *testing.T, spec string) []fault.Rule {
	t.Helper()
	rules, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}
