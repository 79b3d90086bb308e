package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// smokeConfig matches the cheap config the rest of the suite uses.
func smokeConfig() core.Config {
	return core.Config{Seed: 7, Trials: 2, MaxK: 4}
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

func runBody(cfg core.Config, id string) string {
	return fmt.Sprintf(`{"experiment":%q,"config":{"seed":%d,"trials":%d,"max_k":%d}}`,
		id, cfg.Seed, cfg.Trials, cfg.MaxK)
}

// TestServiceCacheHit drives the real experiment path twice: the first POST
// misses and runs, the second is served from the cache with byte-identical
// table JSON, and /metrics proves it never reached the engine again.
func TestServiceCacheHit(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// E3 rather than E1: it fans out on the engine, so the /metrics engine
	// totals are exercised too.
	body := runBody(smokeConfig(), "E3")
	resp1, data1 := postRun(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, data1)
	}
	var r1, r2 RunResponse
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first request claims to be cached")
	}
	if r1.Key != core.CacheKey("E3", smokeConfig()) {
		t.Errorf("key %s is not the content address", r1.Key)
	}

	resp2, data2 := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d: %s", resp2.StatusCode, data2)
	}
	if err := json.Unmarshal(data2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second identical request was not served from cache")
	}
	if !bytes.Equal(r1.Table, r2.Table) {
		t.Error("cached table bytes differ from the fresh run's")
	}

	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Runs.Started != 1 || m.Runs.Completed != 1 {
		t.Errorf("runs started=%d completed=%d, want 1/1 (cache hit must not run)", m.Runs.Started, m.Runs.Completed)
	}
	if m.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", m.Cache.Entries)
	}
	if m.Engine.Cells <= 0 {
		t.Errorf("engine cells_total = %d, want > 0 after an E3 run", m.Engine.Cells)
	}
}

// TestServiceCachedAcrossSeeds: the key covers only an experiment's
// declared inputs. E11 reads no config field, so a request at seed 2 hits
// the table computed at seed 1 — same key, same bytes — while E3, which
// reads the seed, misses at both. The envelope still echoes each request's
// own config.
func TestServiceCachedAcrossSeeds(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(id string, seed uint64) RunResponse {
		t.Helper()
		cfg := smokeConfig()
		cfg.Seed = seed
		resp, data := postRun(t, ts, runBody(cfg, id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s seed %d: %d: %s", id, seed, resp.StatusCode, data)
		}
		var r RunResponse
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Config.Seed != seed {
			t.Errorf("%s seed %d: envelope echoes seed %d", id, seed, r.Config.Seed)
		}
		return r
	}
	e11a, e11b := run("E11", 1), run("E11", 2)
	if e11a.Cached || !e11b.Cached {
		t.Errorf("E11 cached = %v then %v, want a miss then a hit", e11a.Cached, e11b.Cached)
	}
	if e11a.Key != e11b.Key || !bytes.Equal(e11a.Table, e11b.Table) {
		t.Error("E11 at seeds 1 and 2 got different keys or table bytes")
	}
	e3a, e3b := run("E3", 1), run("E3", 2)
	if e3a.Cached || e3b.Cached || e3a.Key == e3b.Key {
		t.Errorf("E3 at seeds 1 and 2: cached %v/%v, keys equal %v; want two misses under two keys",
			e3a.Cached, e3b.Cached, e3a.Key == e3b.Key)
	}
	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Cache.Hits != 1 || m.Cache.Misses != 3 || m.Runs.Started != 3 {
		t.Errorf("hits=%d misses=%d runs=%d, want 1/3/3", m.Cache.Hits, m.Cache.Misses, m.Runs.Started)
	}
}

// TestServiceCLIAndServerTablesIdentical is the no-drift guarantee: the
// table the service returns is byte-identical (modulo run-dependent
// Metrics) to what the CLI's core.RunContext entry point produces for the
// same (experiment, config, seed).
func TestServiceCLIAndServerTablesIdentical(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postRun(t, ts, runBody(smokeConfig(), "E1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d: %s", resp.StatusCode, data)
	}
	var r RunResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	var served core.Table
	if err := json.Unmarshal(r.Table, &served); err != nil {
		t.Fatal(err)
	}

	direct, err := core.RunContext(context.Background(), "E1", smokeConfig())
	if err != nil {
		t.Fatal(err)
	}

	served.Metrics, direct.Metrics = core.Metrics{}, core.Metrics{}
	if !reflect.DeepEqual(&served, direct) {
		t.Fatalf("server and CLI tables differ:\nserver: %+v\ncli:    %+v", served, *direct)
	}
	a, err := json.Marshal(&served)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("metrics-stripped table JSON not byte-identical:\n%s\n%s", a, b)
	}
}

// TestServiceSingleflightCollapse fires 16 concurrent identical requests at
// a run function that blocks until every request has arrived, then counts:
// the run must execute once, one caller is the miss, 15 coalesce.
func TestServiceSingleflightCollapse(t *testing.T) {
	const clients = 16
	var calls atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		calls.Add(1)
		<-release
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := runBody(smokeConfig(), "E3")
	var wg sync.WaitGroup
	type result struct {
		status int
		resp   RunResponse
	}
	results := make([]result, clients)
	var arrived atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			resp, data := postRun(t, ts, body)
			results[i].status = resp.StatusCode
			_ = json.Unmarshal(data, &results[i].resp)
		}(i)
	}
	// Hold the one real run until every client has at least been spawned;
	// followers either coalesce on the flight or hit the cache afterwards —
	// both prove the engine ran once.
	for arrived.Load() < clients {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("run function executed %d times for %d identical requests", got, clients)
	}
	var tables [][]byte
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.status)
		}
		tables = append(tables, r.resp.Table)
	}
	for i := 1; i < len(tables); i++ {
		if !bytes.Equal(tables[0], tables[i]) {
			t.Errorf("client %d received different table bytes", i)
		}
	}
	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Cache.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1", m.Cache.Misses)
	}
	if m.Runs.Started != 1 {
		t.Errorf("runs started = %d, want 1", m.Runs.Started)
	}
	if m.Cache.Misses+m.Cache.Coalesced+m.Cache.Hits != clients {
		t.Errorf("outcome counters %d+%d+%d don't cover %d clients",
			m.Cache.Misses, m.Cache.Coalesced, m.Cache.Hits, clients)
	}
}

// TestServiceSemaphoreBoundsConcurrentRuns checks that distinct experiments
// (distinct cache keys, so singleflight does not collapse them) never
// execute concurrently beyond MaxConcurrentRuns.
func TestServiceSemaphoreBoundsConcurrentRuns(t *testing.T) {
	var inRun, maxInRun atomic.Int64
	s := newTestServer(t, Options{MaxConcurrentRuns: 1})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		cur := inRun.Add(1)
		defer inRun.Add(-1)
		for {
			old := maxInRun.Load()
			if cur <= old || maxInRun.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond) // widen the overlap window
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, data := postRun(t, ts, runBody(smokeConfig(), id))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", id, resp.StatusCode, data)
			}
		}(id)
	}
	wg.Wait()
	if got := maxInRun.Load(); got > 1 {
		t.Errorf("observed %d concurrent runs, semaphore bound is 1", got)
	}
}

// TestServiceConfigErrors maps malformed requests onto 4xx with the typed
// ConfigError field names; nothing malformed may reach the engine.
func TestServiceConfigErrors(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		calls.Add(1)
		return nil, fmt.Errorf("must not run")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		field  string
	}{
		{"trials zero", `{"experiment":"E3","config":{"seed":1,"trials":0,"max_k":4}}`, http.StatusBadRequest, "trials"},
		{"maxk too small", `{"experiment":"E3","config":{"seed":1,"trials":2,"max_k":3}}`, http.StatusBadRequest, "max_k"},
		{"maxk too large", `{"experiment":"E3","config":{"seed":1,"trials":2,"max_k":99}}`, http.StatusBadRequest, "max_k"},
		{"unknown experiment", `{"experiment":"E99","config":{"seed":1,"trials":2,"max_k":4}}`, http.StatusNotFound, ""},
		{"malformed id", `{"experiment":"Axe"}`, http.StatusNotFound, ""},
		{"missing experiment", `{"config":{"trials":2,"max_k":4}}`, http.StatusBadRequest, ""},
		{"not json", `{nope`, http.StatusBadRequest, ""},
		{"unknown field", `{"experiment":"E3","confg":{}}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postRun(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var e errorResponse
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", data)
			}
			if e.Error == "" {
				t.Error("empty error message")
			}
			if e.Field != tc.field {
				t.Errorf("field %q, want %q", e.Field, tc.field)
			}
		})
	}
	if calls.Load() != 0 {
		t.Errorf("%d malformed requests reached the run function", calls.Load())
	}

	// Defaulting: absent config fields fall back to DefaultConfig, so a
	// body naming only the experiment is valid (stub keeps it cheap).
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		if cfg != core.DefaultConfig() {
			return nil, fmt.Errorf("config %+v, want defaults", cfg)
		}
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	resp, data := postRun(t, ts, `{"experiment":"E3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("defaulted request failed: %d: %s", resp.StatusCode, data)
	}
}

// TestServiceRunTimeout maps an expired per-run deadline onto 504 and must
// not cache the failure.
func TestServiceRunTimeout(t *testing.T) {
	s := newTestServer(t, Options{RunTimeout: 10 * time.Millisecond})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		<-ctx.Done() // the engine behaves the same way: Map returns ctx.Err()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postRun(t, ts, runBody(smokeConfig(), "E3"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Runs.Failed != 1 {
		t.Errorf("runs failed = %d, want 1", m.Runs.Failed)
	}
	if m.Cache.Entries != 0 {
		t.Errorf("failed run was cached (%d entries)", m.Cache.Entries)
	}
}

// TestServiceGracefulShutdownDrains starts a slow run, calls Shutdown while
// it is in flight, and checks that Shutdown waits for the run to finish and
// the client still receives its 200.
func TestServiceGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		close(started)
		<-release
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	respc := make(chan *http.Response, 1)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(runBody(smokeConfig(), "E3")))
		if err != nil {
			reqErr <- err
			return
		}
		respc <- resp
	}()
	<-started // the run is now in flight

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Shutdown must block while the run drains.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a run was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case resp := <-respc:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("drained request got %d, want 200", resp.StatusCode)
		}
	case err := <-reqErr:
		t.Fatalf("request failed across shutdown: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("request did not complete after release")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the run drained")
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestServicePanicIsolatedByMiddleware: a run function that panics must
// surface as a 500 with a JSON body — the process, the listener, and the
// cache key all stay usable, and the singleflight entry is released.
func TestServicePanicIsolatedByMiddleware(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		if calls.Add(1) == 1 {
			panic("poisoned cell")
		}
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := runBody(smokeConfig(), "E3")
	resp, data := postRun(t, ts, body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d, want 500: %s", resp.StatusCode, data)
	}
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("panicking run body %s (err %v), want a JSON error naming the panic", data, err)
	}

	// The key must stay retryable: the second request runs and succeeds.
	resp2, data2 := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic: status %d: %s", resp2.StatusCode, data2)
	}
	if calls.Load() != 2 {
		t.Errorf("run function called %d times, want 2 (panic must not cache or wedge the key)", calls.Load())
	}
}

// TestServiceHandlerPanicCounted drives a panic through the middleware via
// a handler-level injected fault and checks the /metrics panic counter.
func TestServiceHandlerPanicCounted(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := fault.Enable(11, "service.handler:panic:1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	resp, data := postRun(t, ts, runBody(smokeConfig(), "E3"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	fault.Disable()

	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Service.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", m.Service.Panics)
	}
}

// TestServiceShedsWhenQueueFull fills every run slot and queue slot with
// distinct blocked runs; the next distinct request must be shed 503 with
// Retry-After, counted, and never reach the run function.
func TestServiceShedsWhenQueueFull(t *testing.T) {
	const maxRuns, maxQueue = 1, 2
	started := make(chan string, maxRuns)
	release := make(chan struct{})
	var ran atomic.Int64
	s := newTestServer(t, Options{MaxConcurrentRuns: maxRuns, MaxQueuedRuns: maxQueue})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		ran.Add(1)
		started <- id
		<-release
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One running + maxQueue queued, all distinct experiments so nothing
	// coalesces.
	ids := []string{"E1", "E2", "E3"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, data := postRun(t, ts, runBody(smokeConfig(), id))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", id, resp.StatusCode, data)
			}
		}(id)
	}
	<-started // one run is in flight; the others pile into the queue
	waitForQueueDepth(t, ts, maxQueue)

	// Queue is provably full: this request must shed.
	resp, data := postRun(t, ts, runBody(smokeConfig(), "E4"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response has no Retry-After header")
	}

	close(release)
	for range ids[1:] {
		<-started
	}
	wg.Wait()

	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Service.Sheds != 1 {
		t.Errorf("sheds = %d, want 1", m.Service.Sheds)
	}
	if ran.Load() != int64(len(ids)) {
		t.Errorf("run function executed %d times, want %d (the shed request must not run)", ran.Load(), len(ids))
	}
	if got := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced + m.Service.Sheds; got != m.Service.Requests {
		t.Errorf("conservation violated: hits+misses+coalesced+sheds = %d, requests = %d", got, m.Service.Requests)
	}
	if m.Service.QueueDepth != 0 {
		t.Errorf("queue depth = %d after drain, want 0", m.Service.QueueDepth)
	}
}

// waitForQueueDepth polls /metrics until the admission queue holds depth
// waiters (the queue gauge is the only externally observable signal that
// blocked requests have actually reached the semaphore wait).
func waitForQueueDepth(t *testing.T, ts *httptest.Server, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var m metricsSnapshot
		getJSON(t, ts, "/metrics", &m)
		if m.Service.QueueDepth >= int64(depth) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("admission queue never reached depth %d", depth)
}

// TestServiceHealthzDraining: once Shutdown begins, /healthz flips to 503
// "draining" for the rest of the server's life.
func TestServiceHealthzDraining(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		close(started)
		<-release
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz: %d, want 200", resp.StatusCode)
	}

	go func() {
		_, _ = http.Post(url+"/v1/run", "application/json", strings.NewReader(runBody(smokeConfig(), "E3")))
	}()
	<-started // a run is in flight, so Shutdown will block draining it

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// The drain flag flips before http.Server.Shutdown starts closing
	// listeners; while the in-flight run holds Shutdown open, /healthz —
	// exercised through the handler, since fresh connections are already
	// refused — must answer 503 "draining" (keep-alive probes from a load
	// balancer would see the same).
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz status %d, want 503", rec.Code)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Status != "draining" {
		t.Errorf("draining /healthz body %q (err %v), want \"draining\"", body.Status, err)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestServiceExperimentsEndpoint mirrors `cadaptive -list`.
func TestServiceExperimentsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	resp := getJSON(t, ts, "/v1/experiments", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	exps := core.Experiments()
	if len(body.Experiments) != len(exps) {
		t.Fatalf("%d experiments listed, core has %d", len(body.Experiments), len(exps))
	}
	for i, e := range exps {
		got := body.Experiments[i]
		if got.ID != e.ID || got.Source != e.Source || got.Summary != e.Summary {
			t.Errorf("entry %d = %+v, want %s/%s/%s", i, got, e.ID, e.Source, e.Summary)
		}
		if !reflect.DeepEqual(got.Inputs, e.Inputs.Names()) {
			t.Errorf("%s inputs = %v, want %v", e.ID, got.Inputs, e.Inputs.Names())
		}
	}
	// The wire form: an experiment that reads no field lists [], not null.
	var raw struct {
		Experiments []map[string]json.RawMessage `json:"experiments"`
	}
	getJSON(t, ts, "/v1/experiments", &raw)
	for _, row := range raw.Experiments {
		if string(row["id"]) == `"E11"` && string(row["inputs"]) != "[]" {
			t.Errorf("E11 inputs on the wire = %s, want []", row["inputs"])
		}
	}
}

func TestServiceHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts, "/healthz", &body); resp.StatusCode != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, body)
	}
}

func TestServiceMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %d, want 405", resp.StatusCode)
	}
}

func TestServiceOptionsValidation(t *testing.T) {
	// Negative cache bounds are the documented "caching disabled" opt-in
	// (mirroring RunTimeout < 0): they must be accepted, and the built
	// cache must store nothing.
	s0, err := New(Options{CacheEntries: -1})
	if err != nil {
		t.Fatalf("CacheEntries -1 (disabled) rejected: %v", err)
	}
	if !s0.cache.disabled {
		t.Error("CacheEntries -1 did not disable caching")
	}
	if s0, err = New(Options{CacheBytes: -1}); err != nil {
		t.Fatalf("CacheBytes -1 (disabled) rejected: %v", err)
	} else if !s0.cache.disabled {
		t.Error("CacheBytes -1 did not disable caching")
	}
	if _, err := New(Options{CacheShards: -1}); err == nil {
		t.Error("negative CacheShards accepted")
	}
	if _, err := New(Options{MaxConcurrentRuns: -2}); err == nil {
		t.Error("negative MaxConcurrentRuns accepted")
	}
	if _, err := New(Options{MaxQueuedRuns: -1}); err == nil {
		t.Error("negative MaxQueuedRuns accepted")
	}
	// RunTimeout < 0 is the documented "no timeout" opt-in; 0 keeps the
	// default. Both must be accepted.
	s, err := New(Options{RunTimeout: -time.Second})
	if err != nil {
		t.Fatalf("RunTimeout -1s (unbounded) rejected: %v", err)
	}
	if s.opts.RunTimeout >= 0 {
		t.Errorf("unbounded RunTimeout was defaulted to %v", s.opts.RunTimeout)
	}
	if s, err = New(Options{}); err != nil || s.opts.RunTimeout != 60*time.Second {
		t.Errorf("zero RunTimeout => %v, %v; want the 60s default", s.opts.RunTimeout, err)
	}
}

// TestServiceUnboundedRunTimeout proves RunTimeout < 0 really is "no
// deadline": the run context the server hands to runFn must have none.
func TestServiceUnboundedRunTimeout(t *testing.T) {
	s := newTestServer(t, Options{RunTimeout: -1})
	deadlines := make(chan bool, 1)
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		_, has := ctx.Deadline()
		deadlines <- has
		return &core.Table{ID: id, Header: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, data := postRun(t, ts, runBody(smokeConfig(), "E3")); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if <-deadlines {
		t.Error("run context carries a deadline despite RunTimeout < 0")
	}
}
