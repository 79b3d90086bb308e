package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/xrand"
)

// Every service request and batch cell runs at trials svcTrials and maxk
// svcMaxK, sent by svcClients closed-loop clients to a server whose cache
// holds svcCacheEntries tables.
const (
	svcTrials       = 2
	svcMaxK         = 4
	svcClients      = 2
	svcCacheEntries = 256
)

// svcKey is one (experiment, config) the service workload requests.
type svcKey struct {
	id  string
	cfg core.Config
}

// serviceBench drives an in-process cadaptived server over loopback
// net/http. A pass is an interactive phase — a closed loop of clients, each
// sending its next /v1/run request when the previous one returns, over keys
// of Zipf-like popularity, so that hits (reads) and misses with their
// evictions (writes) both load the sharded cache — followed by one batch
// job whose cells all miss.
type serviceBench struct {
	e         env
	ids       []string      // experiments in the key space
	keys      []svcKey      // most popular first
	cum       []float64     // cumulative popularity, aligned with keys
	rng       *xrand.Source // draws the request stream
	batchSeed uint64        // first batch seed; above every interactive seed
	batches   int
	hc        *http.Client

	srv    *service.Server
	served chan error // what Serve returned
	dir    string     // the server's journal directory
	base   string     // the server's URL

	mu     sync.Mutex
	bodies map[svcKey]map[string]bool // distinct table bodies served per key

	ledgerErr error
	last      svcPass
}

// svcPass is what the last pass saw.
type svcPass struct {
	ir                 svcRequests
	job                *jobs.Status
	jobSeconds         float64
	before, mid, after serviceMetrics // at the start, between the phases, at the end
}

// svcRequests records one interactive phase.
type svcRequests struct {
	lat    []float64 // seconds per request, client retries included
	cached []bool
	ok     []bool
	failed int64
	err    error // the first failure
	phase  float64
}

func newServiceBench(e env) *serviceBench {
	b := &serviceBench{
		e:      e,
		bodies: map[svcKey]map[string]bool{},
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	for _, ex := range core.Experiments() {
		// E13's 0.3 s miss would make the latency tail a lottery over
		// whether one was drawn.
		if ex.ID != "E13" {
			b.ids = append(b.ids, ex.ID)
		}
	}
	// Popularity rank r has weight 1/(r+1) and belongs to experiment
	// r mod len(ids). The stream of ranks is the same at every workload
	// seed, so every seed sends the same experiments in the same order,
	// hits and misses alike; the seed picks the configs' seeds, and with
	// them every table the service computes. A seeded stream made the
	// number of misses of each experiment, and with it a pass's time,
	// differ by a fifth between seeds.
	base := 1 + xrand.Split(e.seed, "perfbench/service")>>24
	b.batchSeed = base + uint64(e.sz.svcSeeds)
	var total float64
	for s := 0; s < e.sz.svcSeeds; s++ {
		for _, id := range b.ids {
			b.keys = append(b.keys, svcKey{id, core.Config{Seed: base + uint64(s), Trials: svcTrials, MaxK: svcMaxK}})
			total += 1 / float64(len(b.keys))
			b.cum = append(b.cum, total)
		}
	}
	for i := range b.cum {
		b.cum[i] /= total
	}
	b.rng = xrand.New(xrand.Split(0, "perfbench/service/requests"))
	return b
}

// draw returns the next n requests of the seeded stream as key indices.
func (b *serviceBench) draw(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = min(sort.SearchFloat64s(b.cum, b.rng.Float64()), len(b.cum)-1)
	}
	return out
}

// setup starts a fresh server and warms its cache with one untimed pass
// over the same request distribution.
func (b *serviceBench) setup(tr *tracer) error {
	if err := b.stop(); err != nil {
		return err
	}
	sp := tr.begin(0, "service.New")
	err := b.start()
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(0, "service.warm-up")
	ir := b.interactive(tr, sp.id, b.draw(b.e.sz.svcWarmup))
	sp.end()
	if ir.err != nil {
		return fmt.Errorf("warm-up: %d requests failed, the first with: %w", ir.failed, ir.err)
	}
	return nil
}

func (b *serviceBench) start() error {
	dir, err := os.MkdirTemp(b.e.out, "jobs-")
	if err != nil {
		return err
	}
	srv, err := service.New(service.Options{CacheEntries: svcCacheEntries, JobsDir: dir})
	if err != nil {
		return errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, srv.Shutdown(context.Background()), os.RemoveAll(dir))
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	b.srv, b.served, b.dir, b.base = srv, served, dir, "http://"+ln.Addr().String()
	return nil
}

// stop shuts the server down, waits until it has stopped serving and
// removes its journal directory. Without a server it does nothing.
func (b *serviceBench) stop() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	b.hc.CloseIdleConnections()
	b.srv = nil
	return errors.Join(err, os.RemoveAll(b.dir))
}

func (b *serviceBench) close() error { return b.stop() }

// client returns a retrying client of the running server. Short backoff
// steps keep WaitJob's polling from adding to a batch job's time.
func (b *serviceBench) client(seed uint64) *service.Client {
	c := service.NewClient(b.base)
	c.HTTPClient = b.hc
	c.Seed = seed
	c.BaseDelay, c.MaxDelay = 2*time.Millisecond, 20*time.Millisecond
	return c
}

// interactive sends reqs through svcClients closed-loop clients: each
// client sends its next request when the previous one has returned.
func (b *serviceBench) interactive(tr *tracer, parent int, reqs []int) svcRequests {
	r := svcRequests{lat: make([]float64, len(reqs)), cached: make([]bool, len(reqs)), ok: make([]bool, len(reqs))}
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		cl := b.client(uint64(c) + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				k := b.keys[reqs[i]]
				sp := tr.begin(parent, "service.Client.Run")
				resp, err := cl.Run(context.Background(), k.id, k.cfg)
				r.lat[i] = sp.end()
				if err != nil {
					errs[i] = err
					continue
				}
				r.ok[i], r.cached[i] = true, resp.Cached
				b.record(k, resp.Table)
			}
		}()
	}
	wg.Wait()
	r.phase = time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = err
			}
		}
	}
	return r
}

// record keeps each distinct table body served for k, for check.
func (b *serviceBench) record(k svcKey, table []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bodies[k] == nil {
		b.bodies[k] = map[string]bool{}
	}
	b.bodies[k][string(table)] = true
}

// pass runs the interactive phase, then the batch job, and checks the
// ledgers once the job has drained.
func (b *serviceBench) pass(tr *tracer, parent int) (passResult, error) {
	var p svcPass
	var err error
	if p.before, err = b.metrics(); err != nil {
		return passResult{}, err
	}
	sp := tr.begin(parent, "service.interactive")
	p.ir = b.interactive(tr, sp.id, b.draw(b.e.sz.svcRequests))
	sp.end()
	if p.mid, err = b.metrics(); err != nil {
		return passResult{}, err
	}
	sp = tr.begin(parent, "service.batch")
	p.job, p.jobSeconds, err = b.batch(tr, sp.id)
	sp.end()
	if err != nil {
		return passResult{}, err
	}
	var imbalance error
	if p.after, imbalance, err = b.drainedMetrics(); err != nil {
		return passResult{}, err
	}
	if imbalance != nil && b.ledgerErr == nil {
		b.ledgerErr = imbalance
	}
	b.last = p
	return passResult{
		wall:    p.ir.phase + p.jobSeconds,
		ops:     p.ir.lat,
		opPhase: p.ir.phase,
		extra:   int64(p.job.Total),
		failed:  p.ir.failed + int64(p.job.Poisoned+p.job.Cancelled),
	}, nil
}

// batch submits one job over every experiment at a seed no interactive key
// or earlier batch uses, so that every cell misses, and waits until it is
// terminal. It
// returns the final status with per-cell detail and the submit-to-terminal
// time.
func (b *serviceBench) batch(tr *tracer, parent int) (*jobs.Status, float64, error) {
	spec := jobs.Spec{
		Experiments: b.ids,
		SeedStart:   b.batchSeed + uint64(b.batches),
		SeedCount:   1,
		Trials:      svcTrials,
		MaxKMin:     svcMaxK,
		MaxKMax:     svcMaxK,
	}
	b.batches++
	ctx := context.Background()
	cl := b.client(svcClients + 1)
	start := time.Now()
	sp := tr.begin(parent, "service.Client.SubmitJob")
	st, err := cl.SubmitJob(ctx, spec)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin(parent, "service.Client.WaitJob")
	st, err = cl.WaitJob(ctx, st.ID)
	sp.end()
	secs := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if st, err = cl.Job(ctx, st.ID, true); err != nil {
		return nil, 0, err
	}
	for _, c := range st.Cells {
		if c.Table != nil {
			b.record(svcKey{c.Experiment, core.Config{Seed: c.Seed, Trials: c.Trials, MaxK: c.MaxK}}, c.Table)
		}
	}
	return st, secs, nil
}

// serviceMetrics is the part of GET /metrics the benchmark reads.
type serviceMetrics struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Service struct {
		Requests int64 `json:"requests"`
		Sheds    int64 `json:"sheds"`
	} `json:"service"`
	Engine struct {
		WallSeconds float64 `json:"wall_seconds_total"`
	} `json:"engine"`
	Jobs jobs.Ledger `json:"jobs"`
}

func (b *serviceBench) metrics() (serviceMetrics, error) {
	var m serviceMetrics
	resp, err := b.hc.Get(b.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// drainedMetrics reads /metrics until the ledgers balance and returns the
// last reading, with the imbalance if they never did. The jobs counters
// settle a moment after a job reports its terminal state.
func (b *serviceBench) drainedMetrics() (m serviceMetrics, imbalance, err error) {
	for try := 0; try < 100; try++ {
		if m, err = b.metrics(); err != nil {
			return m, nil, err
		}
		if imbalance = checkLedger(m); imbalance == nil {
			return m, nil, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return m, imbalance, nil
}

// checkLedger checks the conservation equations /metrics promises once
// the jobs have drained: every request is exactly one of hit, miss,
// coalesced or shed, and every batch cell and job has exactly one terminal
// state.
func checkLedger(m serviceMetrics) error {
	c, s, j := m.Cache, m.Service, m.Jobs
	if got := c.Hits + c.Misses + c.Coalesced + s.Sheds; got != s.Requests {
		return fmt.Errorf("hits+misses+coalesced+sheds = %d, requests = %d", got, s.Requests)
	}
	if j.CellsInFlight != 0 || j.CellsPending != 0 {
		return fmt.Errorf("jobs not drained: %d cells in flight, %d pending", j.CellsInFlight, j.CellsPending)
	}
	if got := j.CellsCompleted + j.CellsPoisoned + j.CellsCancelled; got != j.CellsSubmitted {
		return fmt.Errorf("cells completed+poisoned+cancelled = %d, submitted = %d", got, j.CellsSubmitted)
	}
	if got := j.JobsActive + j.JobsCompleted + j.JobsPartial + j.JobsCancelled; got != j.JobsSubmitted {
		return fmt.Errorf("jobs active+completed+partial+cancelled = %d, submitted = %d", got, j.JobsSubmitted)
	}
	return nil
}

// check requires the ledgers to have balanced after every pass and every
// distinct table body served to match a local run.
func (b *serviceBench) check() error {
	if b.ledgerErr != nil {
		return fmt.Errorf("ledger: %w", b.ledgerErr)
	}
	return b.verifyBodies()
}

// verifyBodies checks every distinct table body the server returned
// against the table of a local core.RunContext with the same experiment
// and config, using every CPU.
func (b *serviceBench) verifyBodies() error {
	type work struct {
		k    svcKey
		raws []string
	}
	var todo []work
	for k, set := range b.bodies {
		w := work{k: k}
		for raw := range set {
			w.raws = append(w.raws, raw) //lint:ignore maporder each body is compared on its own; order cannot matter
		}
		todo = append(todo, w) //lint:ignore maporder each key is verified on its own; order only permutes error messages
	}
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				errs[i] = verifyBody(todo[i].k, todo[i].raws)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func verifyBody(k svcKey, raws []string) error {
	want, err := core.RunContext(context.Background(), k.id, k.cfg)
	if err != nil {
		return err
	}
	text := want.Format()
	for _, raw := range raws {
		var got core.Table
		if err := json.Unmarshal([]byte(raw), &got); err != nil {
			return fmt.Errorf("%s seed %d: %w", k.id, k.cfg.Seed, err)
		}
		if got.Format() != text {
			return fmt.Errorf("%s seed %d: the served table differs from a local run", k.id, k.cfg.Seed)
		}
	}
	return nil
}

// layers reports the service and jobs layers from the last pass, which ran
// traced, and three in-process probes: a cache hit through the handler
// alone, the hit rate at 16 cache shards against 1, and a journal append.
func (b *serviceBench) layers(tr *tracer) (map[string]float64, error) {
	p := b.last
	delta := func(f func(serviceMetrics) int64) float64 { return float64(f(p.mid) - f(p.before)) }
	hits := delta(func(m serviceMetrics) int64 { return m.Cache.Hits })
	misses := delta(func(m serviceMetrics) int64 { return m.Cache.Misses })
	coalesced := delta(func(m serviceMetrics) int64 { return m.Cache.Coalesced })
	var hitLat, missLat []float64
	for i, l := range p.ir.lat {
		switch {
		case !p.ir.ok[i]:
		case p.ir.cached[i]:
			hitLat = append(hitLat, l)
		default:
			missLat = append(missLat, l)
		}
	}
	v := map[string]float64{
		"service.hit_ratio":      hits / (hits + misses + coalesced),
		"service.evictions":      delta(func(m serviceMetrics) int64 { return m.Cache.Evictions }),
		"service.coalesced":      coalesced,
		"service.hit_p50_us":     quantile(hitLat, 0.5) * 1e6,
		"service.miss_p50_ms":    quantile(missLat, 0.5) * 1e3,
		"service.miss_p99_ms":    quantile(missLat, 0.99) * 1e3,
		"service.run_s_total":    p.mid.Engine.WallSeconds - p.before.Engine.WallSeconds,
		"jobs.cells_per_s":       float64(p.job.Total) / p.jobSeconds,
		"jobs.attempts_per_cell": meanAttempts(p.job),
	}
	hit, body, err := b.handlerHit(tr)
	if err != nil {
		return nil, err
	}
	v["service.handler_hit_us"] = hit * 1e6
	v["service.http_overhead_us"] = v["service.hit_p50_us"] - v["service.handler_hit_us"]
	if v["service.shard_speedup_16v1"], err = b.shardSpeedup(tr); err != nil {
		return nil, err
	}
	appendSec, err := journalAppend(tr, b.e.out, body, b.e.sz.svcJournal)
	if err != nil {
		return nil, err
	}
	v["jobs.journal_append_us"] = appendSec * 1e6
	return v, nil
}

func meanAttempts(st *jobs.Status) float64 {
	var sum int
	for _, c := range st.Cells {
		sum += c.Attempts
	}
	return float64(sum) / float64(len(st.Cells))
}

// runBody is the /v1/run request body for k.
func runBody(k svcKey) ([]byte, error) {
	return json.Marshal(struct {
		Experiment string      `json:"experiment"`
		Config     core.Config `json:"config"`
	}{k.id, k.cfg})
}

// serveInProcess sends one /v1/run request straight to h.
func serveInProcess(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rec
}

// servedTable sends one /v1/run request straight to h and returns the
// table served, decoded and raw.
func servedTable(h http.Handler, body []byte) (*core.Table, []byte, error) {
	rec := serveInProcess(h, body)
	if rec.Code != http.StatusOK {
		return nil, nil, fmt.Errorf("in-process request: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp service.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, nil, err
	}
	var t core.Table
	if err := json.Unmarshal(resp.Table, &t); err != nil {
		return nil, nil, err
	}
	return &t, resp.Table, nil
}

// handlerHit times cache hits served in process through Handler().ServeHTTP
// — no client and no network — over the most popular key of each
// experiment, and returns the median in seconds with one table body.
func (b *serviceBench) handlerHit(tr *tracer) (float64, []byte, error) {
	h := b.srv.Handler()
	bodies := make([][]byte, len(b.ids))
	var table []byte
	for i := range bodies {
		var err error
		if bodies[i], err = runBody(b.keys[i]); err != nil {
			return 0, nil, err
		}
		// The first request caches the key if an eviction dropped it.
		if _, table, err = servedTable(h, bodies[i]); err != nil {
			return 0, nil, err
		}
	}
	ds := make([]float64, b.e.sz.svcProbe)
	for i := range ds {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		sp := tr.begin(0, "service.Handler.ServeHTTP")
		h.ServeHTTP(rec, req)
		ds[i] = sp.end()
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
			return 0, nil, fmt.Errorf("in-process request %d: status %d, not a hit", i, rec.Code)
		}
	}
	return median(ds), table, nil
}

// shardSpeedup returns the cache's in-process hit rate at 16 shards over
// its rate at 1 shard, with svcClients goroutines requesting keys that are
// all cached. Both servers must serve the same tables.
func (b *serviceBench) shardSpeedup(tr *tracer) (float64, error) {
	var keys []svcKey
	for _, k := range b.keys {
		if k.id == "E1" {
			keys = append(keys, k)
		}
	}
	r1, texts1, err := shardHitRate(tr, 1, keys, svcClients, b.e.sz.svcProbe)
	if err != nil {
		return 0, err
	}
	r16, texts16, err := shardHitRate(tr, 16, keys, svcClients, b.e.sz.svcProbe)
	if err != nil {
		return 0, err
	}
	if !slices.Equal(texts1, texts16) {
		return 0, errors.New("tables served at 16 cache shards differ from 1 shard")
	}
	return r16 / r1, nil
}

// shardHitRate starts a server with the given cache shard count, caches
// keys, and returns the in-process hits per second of clients goroutines,
// with the text of each key's table.
func shardHitRate(tr *tracer, shards int, keys []svcKey, clients, hits int) (rate float64, texts []string, err error) {
	srv, err := service.New(service.Options{CacheEntries: svcCacheEntries, CacheShards: shards})
	if err != nil {
		return 0, nil, err
	}
	defer func() { err = errors.Join(err, srv.Shutdown(context.Background())) }()
	h := srv.Handler()
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		if bodies[i], err = runBody(k); err != nil {
			return 0, nil, err
		}
		t, _, err := servedTable(h, bodies[i])
		if err != nil {
			return 0, nil, err
		}
		texts = append(texts, t.Format())
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	sp := tr.begin(0, fmt.Sprintf("service.Handler.ServeHTTP:shards=%d", shards))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				if rec := serveInProcess(h, bodies[(i+c)%len(bodies)]); rec.Code != http.StatusOK {
					errs[c] = fmt.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	d := sp.end()
	return float64(clients*hits) / d, texts, errors.Join(errs...)
}

// journalAppend times AppendCell on a fresh journal, fsync included, and
// returns the median in seconds.
func journalAppend(tr *tracer, dir string, body []byte, n int) (sec float64, err error) {
	jdir, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(jdir)) }()
	sp := tr.begin(0, "jobs.OpenJournal")
	j, _, err := jobs.OpenJournal(jdir)
	sp.end()
	if err != nil {
		return 0, err
	}
	ds := make([]float64, n)
	for i := range ds {
		sp := tr.begin(0, "jobs.Journal.AppendCell")
		err := j.AppendCell(fmt.Sprintf("cell-%d", i), body)
		ds[i] = sp.end()
		if err != nil {
			return 0, errors.Join(err, j.Close())
		}
	}
	return median(ds), j.Close()
}
