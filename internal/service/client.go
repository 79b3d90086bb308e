package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/xrand"
)

// Client is the retrying HTTP client for cadaptived, used by the
// `cadaptive -server=URL` remote mode and the chaos suite. It retries
// transport errors and 5xx responses with capped exponential backoff and
// *deterministic* jitter: the jitter stream is an xrand source derived
// from Seed, so two clients with the same seed issue the same delay
// sequence — chaos runs stay replayable even through their retry timing.
// A server-provided Retry-After (seconds) raises the next delay to at
// least what the server asked for.
//
// Retrying is sound here in a way it often isn't elsewhere: POST /v1/run
// is idempotent by construction (results are content-addressed pure
// functions), so a retried request can only return the same bytes.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request (default 5; min 1).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms); successive
	// delays double, capped at MaxDelay (default 5s), each scaled by a
	// deterministic jitter factor in [0.5, 1).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter stream (any fixed value gives a replayable
	// delay sequence).
	Seed uint64

	// sleep is time.Sleep, injectable so tests retry instantly.
	sleep func(time.Duration)
	// jitter is lazily derived from Seed; guarded by the single-goroutine
	// contract below.
	jitter *xrand.Source
}

// NewClient returns a Client with defaults. A Client is not safe for
// concurrent use (its jitter stream is stateful); storms use one Client
// per goroutine with distinct seeds.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:     baseURL,
		HTTPClient:  http.DefaultClient,
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		sleep:       time.Sleep,
	}
}

// RetryError is the terminal failure after MaxAttempts: it keeps the last
// status and body so callers can distinguish "server kept shedding" from
// "experiment is broken".
type RetryError struct {
	Attempts   int
	LastStatus int // 0 when the last failure was a transport error
	LastErr    error
	LastBody   string

	// retryAfter carries the last response's Retry-After between attempts.
	retryAfter time.Duration
}

func (e *RetryError) Error() string {
	if e.LastErr != nil {
		return fmt.Sprintf("service client: %d attempts failed, last: %v", e.Attempts, e.LastErr)
	}
	return fmt.Sprintf("service client: %d attempts failed, last status %d: %s", e.Attempts, e.LastStatus, e.LastBody)
}

func (e *RetryError) Unwrap() error { return e.LastErr }

// Run POSTs one run request and retries until a non-retryable status
// arrives or MaxAttempts is exhausted. 2xx decodes into a RunResponse; 4xx
// fails immediately (the request itself is wrong); 5xx and transport
// errors back off and retry.
func (c *Client) Run(ctx context.Context, id string, cfg core.Config) (*RunResponse, error) {
	reqBody, err := json.Marshal(struct {
		Experiment string      `json:"experiment"`
		Config     core.Config `json:"config"`
	}{id, cfg})
	if err != nil {
		return nil, err
	}
	var out RunResponse
	err = c.retry(ctx, func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(reqBody))
		if rerr != nil {
			return nil, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		return c.httpClient().Do(req)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Experiments fetches GET /v1/experiments with the same retry policy.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	err := c.retry(ctx, func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/experiments", nil)
		if rerr != nil {
			return nil, rerr
		}
		return c.httpClient().Do(req)
	}, &out)
	if err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// SubmitJob POSTs a batch spec to /v1/jobs and returns the accepted job's
// initial status. Retrying a submission that actually landed creates a
// second job, but its cells are content-addressed: the duplicate resolves
// from the cache, so over-submission costs bookkeeping, not compute.
func (c *Client) SubmitJob(ctx context.Context, spec jobs.Spec) (*jobs.Status, error) {
	reqBody, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out jobs.Status
	err = c.retry(ctx, func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(reqBody))
		if rerr != nil {
			return nil, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		return c.httpClient().Do(req)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches GET /v1/jobs/{id}; withTables includes per-cell detail and
// the completed cells' tables.
func (c *Client) Job(ctx context.Context, id string, withTables bool) (*jobs.Status, error) {
	url := c.BaseURL + "/v1/jobs/" + id
	if !withTables {
		url += "?tables=0"
	}
	var out jobs.Status
	err := c.retry(ctx, func() (*http.Response, error) {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
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

// WaitJob polls GET /v1/jobs/{id} (without tables) until the job leaves
// "running" or ctx expires, pacing polls with the client's deterministic
// backoff discipline capped at MaxDelay.
func (c *Client) WaitJob(ctx context.Context, id string) (*jobs.Status, error) {
	for poll := 1; ; poll++ {
		st, err := c.Job(ctx, id, false)
		if err != nil {
			return nil, err
		}
		if st.Status != jobs.JobRunning {
			return st, nil
		}
		if err := c.sleepCtx(ctx, c.backoff(poll, 0)); err != nil {
			return st, err
		}
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// retry drives one logical request to completion: issue, classify, back
// off, repeat. On success the body is decoded into out.
func (c *Client) retry(ctx context.Context, do func() (*http.Response, error), out any) error {
	attempts := c.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	last := &RetryError{}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleepCtx(ctx, c.backoff(attempt, last.retryAfter)); err != nil {
				return err
			}
		}
		last.Attempts = attempt + 1

		resp, err := do()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err() // cancelled, not a server failure
			}
			last.LastErr, last.LastStatus, last.LastBody, last.retryAfter = err, 0, "", 0
			continue // transport errors are always retryable
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			last.LastErr, last.LastStatus, last.retryAfter = rerr, resp.StatusCode, 0
			continue
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if err := json.Unmarshal(body, out); err != nil {
				return fmt.Errorf("service client: decoding %d response: %w", resp.StatusCode, err)
			}
			return nil
		case resp.StatusCode >= 500:
			// Server-side failure (including 503 shed and 504 timeout):
			// retryable. Honor Retry-After when the server set one.
			last.LastErr, last.LastStatus, last.LastBody = nil, resp.StatusCode, string(body)
			last.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			continue
		default:
			// 4xx: the request itself is invalid; retrying cannot help.
			return fmt.Errorf("service client: status %d: %s", resp.StatusCode, body)
		}
	}
	return last
}

// backoff computes the delay before the given attempt (attempt >= 1):
// BaseDelay·2^(attempt-1), capped at MaxDelay, scaled by a deterministic
// jitter factor in [0.5, 1), and floored at the server's Retry-After.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if c.jitter == nil {
		c.jitter = xrand.New(xrand.Split(c.Seed, "service/client-jitter"))
	}
	d = time.Duration(float64(d) * (0.5 + 0.5*c.jitter.Float64()))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

func (c *Client) sleepFn() func(time.Duration) {
	if c.sleep != nil {
		return c.sleep
	}
	return time.Sleep
}

// sleepCtx runs one backoff sleep concurrently with ctx cancellation, so a
// cancelled context interrupts the wait immediately instead of serving out
// the full delay (up to MaxDelay). The sleep itself — injectable by tests —
// runs on a helper goroutine; on cancellation it finishes in the background,
// which is harmless for time.Sleep and instant for test fakes.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sleep := c.sleepFn()
	done := make(chan struct{})
	//lint:ignore norecover time.Sleep and the test fakes (slice append, no-op) perform no panicking operation; close of a local channel closed nowhere else cannot panic
	go func() {
		sleep(d)
		close(done)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		return nil
	}
}

// parseRetryAfter reads the integer-seconds form of Retry-After (the only
// form this server emits); anything else falls back to pure backoff.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Is makes errors.Is(err, ErrOverloaded) true on terminal RetryErrors
// whose last response was a shed, so callers can tell sustained overload
// apart from real failures without parsing bodies.
func (e *RetryError) Is(target error) bool {
	return target == ErrOverloaded && e.LastStatus == http.StatusServiceUnavailable
}
