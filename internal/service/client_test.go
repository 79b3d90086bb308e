package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// newTestClient wires a Client to srv with instant, recorded sleeps.
func newTestClient(srv *httptest.Server, slept *[]time.Duration) *Client {
	c := NewClient(srv.URL)
	c.HTTPClient = srv.Client()
	c.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	return c
}

// TestSleepCtxCancellation: a cancelled context must interrupt a backoff
// sleep promptly — WaitJob backs off up to MaxDelay between polls, and a
// Ctrl-C'd CLI should not serve out the remaining delay first.
func TestSleepCtxCancellation(t *testing.T) {
	c := NewClient("http://unused") // default real time.Sleep
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := c.sleepCtx(ctx, 10*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleepCtx: got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep was not interrupted", elapsed)
	}
	// An already-cancelled context short-circuits without sleeping at all.
	if err := c.sleepCtx(ctx, 10*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleepCtx on dead ctx: got %v", err)
	}
}

func TestClientRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "overloaded"})
			return
		}
		writeJSON(w, http.StatusOK, RunResponse{Experiment: "E1", Key: "k", Table: []byte(`{"ok":true}`)})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	resp, err := c.Run(context.Background(), "E1", core.DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// writeJSON re-indents the envelope, so compare the table structurally.
	if resp.Experiment != "E1" || !strings.Contains(string(resp.Table), `"ok": true`) {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Both retries followed a 503 with Retry-After: 1, which must floor the
	// jittered backoff (otherwise well under a second) at one second.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (%v)", len(slept), slept)
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("sleep %d = %v, want >= 1s (Retry-After floor)", i, d)
		}
	}
}

func TestClientNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad seed"})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	_, err := c.Run(context.Background(), "E1", core.DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("err = %v, want status 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx must not retry)", got)
	}
	if len(slept) != 0 {
		t.Fatalf("client slept %v before a non-retryable failure", slept)
	}
}

func TestClientExhaustsAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "overloaded"})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	c.MaxAttempts = 3
	_, err := c.Run(context.Background(), "E1", core.DefaultConfig())
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Attempts != 3 || re.LastStatus != http.StatusServiceUnavailable {
		t.Fatalf("RetryError = %+v, want 3 attempts ending in 503", re)
	}
	// A terminal all-sheds failure is overload, recognizably.
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("errors.Is(err, ErrOverloaded) = false for %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

func TestClientRetriesTransportError(t *testing.T) {
	// A server that dies after its first (failed) response: point the client
	// at a closed listener, then nothing ever succeeds — transport errors
	// must be retried MaxAttempts times, not returned on first contact.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	var slept []time.Duration
	c := NewClient(url)
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.MaxAttempts = 3
	_, err := c.Experiments(context.Background())
	var re *RetryError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RetryError", err)
	}
	if re.Attempts != 3 || re.LastStatus != 0 || re.LastErr == nil {
		t.Fatalf("RetryError = %+v, want 3 transport-failed attempts", re)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestClientBackoffDeterministicBySeed(t *testing.T) {
	delays := func(seed uint64) []time.Duration {
		c := NewClient("http://unused")
		c.Seed = seed
		var out []time.Duration
		for attempt := 1; attempt <= 5; attempt++ {
			out = append(out, c.backoff(attempt, 0))
		}
		return out
	}
	a, b := delays(42), delays(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	other := delays(43)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical delay sequences %v", a)
	}
	// Shape: jitter keeps each delay in [half, full] of the capped
	// exponential step.
	steps := []time.Duration{100, 200, 400, 800, 1600}
	for i, d := range a {
		full := steps[i] * time.Millisecond
		if d < full/2 || d > full {
			t.Errorf("attempt %d delay %v outside [%v, %v]", i+1, d, full/2, full)
		}
	}
}

func TestClientExperiments(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/experiments" || r.Method != http.MethodGet {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		writeJSON(w, http.StatusOK, struct {
			Experiments []ExperimentInfo `json:"experiments"`
		}{[]ExperimentInfo{{ID: "E1", Source: "fig 1", Summary: "s"}}})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	exps, err := c.Experiments(context.Background())
	if err != nil {
		t.Fatalf("Experiments: %v", err)
	}
	if len(exps) != 1 || exps[0].ID != "E1" {
		t.Fatalf("exps = %+v", exps)
	}
}

func TestClientAgainstRealServer(t *testing.T) {
	// End-to-end through a real Server: two identical runs, second is a hit,
	// bodies byte-identical.
	s, err := New(Options{Addr: "127.0.0.1:0", MaxConcurrentRuns: 2, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Trials, cfg.MaxK = 7, 2, 4
	first, err := c.Run(context.Background(), "E1", cfg)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	second, err := c.Run(context.Background(), "E1", cfg)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first %v second %v, want false/true", first.Cached, second.Cached)
	}
	if string(first.Table) != string(second.Table) {
		t.Fatalf("cached table bytes differ from fresh run")
	}
}

// CancelJob DELETEs /v1/jobs/{id} and returns the post-cancel status.
// Cancellation is idempotent server-side, so retries are safe.
func (c *Client) CancelJob(ctx context.Context, id string) (*jobs.Status, error) {
	var out jobs.Status
	err := c.retry(ctx, func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
		if rerr != nil {
			return nil, rerr
		}
		return c.httpClient().Do(req)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}
