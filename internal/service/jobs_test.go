package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// stubTable fabricates a small deterministic table for a cell, standing in
// for the real experiment so job tests run in microseconds.
func stubTable(id string, cfg core.Config) *core.Table {
	return &core.Table{
		ID:     id,
		Title:  "stub",
		Header: []string{"seed", "maxk"},
		Rows:   [][]string{{fmt.Sprint(cfg.Seed), fmt.Sprint(cfg.MaxK)}},
	}
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
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

// waitJobHTTP polls GET /v1/jobs/{id} until the job leaves "running".
func waitJobHTTP(t *testing.T, ts *httptest.Server, id string) *jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobs.Status
		if resp := getJSON(t, ts, "/v1/jobs/"+id+"?tables=0", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
		}
		if st.Status != jobs.JobRunning && st.Running == 0 {
			var full jobs.Status
			getJSON(t, ts, "/v1/jobs/"+id, &full)
			return &full
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceJobsEndToEnd drives the whole HTTP surface: submit returns 202
// immediately, progress streams partial tables, the list shows the job, and
// every cell's table round-trips through the shared content-addressed cache.
func TestServiceJobsEndToEnd(t *testing.T) {
	s := newTestServer(t, Options{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		return stubTable(id, cfg), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// E7 reads seed, trials and max_k, so the four cells are four keys and
	// each is a cache miss of its own.
	resp, body := postJob(t, ts, `{"experiments":["E7"],"seed_start":21,"seed_count":2,"trials":2,"maxk_min":4,"maxk_max":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("submit status: %+v", st)
	}

	fin := waitJobHTTP(t, ts, st.ID)
	if fin.Status != jobs.JobCompleted || fin.Completed != 4 {
		t.Fatalf("final status: %+v", fin)
	}
	for _, c := range fin.Cells {
		var tab core.Table
		if err := json.Unmarshal(c.Table, &tab); err != nil {
			t.Fatalf("cell %s table does not decode: %v", c.Key, err)
		}
		if tab.ID != "E7" || len(tab.Rows) != 1 {
			t.Fatalf("cell %s table: %+v", c.Key, tab)
		}
	}

	var list struct {
		Jobs []*jobs.Status `json:"jobs"`
	}
	if resp := getJSON(t, ts, "/v1/jobs", &list); resp.StatusCode != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("list: status %d, %d jobs", resp.StatusCode, len(list.Jobs))
	}

	// The batch cells went through runCached: the service ledger must have
	// counted each cell and still conserve.
	m := fetchMetrics(t, ts.URL)
	if m.Service.Requests < 4 {
		t.Fatalf("cells bypassed the cached run path: %d requests", m.Service.Requests)
	}
	if got := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced + m.Service.Sheds; got != m.Service.Requests {
		t.Fatalf("service conservation violated by batch cells: %d != %d", got, m.Service.Requests)
	}
	if m.Cache.Misses != 4 {
		t.Fatalf("batch cells made %d cache misses, want one per cell (4)", m.Cache.Misses)
	}
	if m.Jobs.CellsCompleted != 4 || m.Jobs.JobsCompleted != 1 {
		t.Fatalf("jobs ledger: %+v", m.Jobs)
	}
}

// TestServiceJobsStatusCodes pins the error mapping: unknown experiment 404
// (consistent with /v1/run), malformed spec 400, unknown job 404, duplicate
// admission beyond MaxJobs 503 with Retry-After.
func TestServiceJobsStatusCodes(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := newTestServer(t, Options{MaxJobs: -1}) // negative: reject all submissions
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return stubTable(id, cfg), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJob(t, ts, `{"experiments":["E999"]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJob(t, ts, `{"experiments":["E1"],"maxk_min":9,"maxk_max":5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted maxk: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJob(t, ts, `{"experiments":["E1"],"bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %s", resp.StatusCode, body)
	}
	resp, body := postJob(t, ts, `{"experiments":["E1"],"trials":2,"maxk_max":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submission: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed submission missing Retry-After")
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/j999"},
		{http.MethodDelete, "/v1/jobs/j999"},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		rs.Body.Close()
		if rs.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", req.method, req.path, rs.StatusCode)
		}
	}
}

// TestServiceJobsCancelHTTP: DELETE interrupts a running job and reports the
// cancelled status; a second DELETE is an idempotent 200.
func TestServiceJobsCancelHTTP(t *testing.T) {
	// Runs are detached from callers by design (results are shared), so a
	// cancelled job's in-flight cells resolve at RunTimeout; keep it tight.
	s := newTestServer(t, Options{RunTimeout: 20 * time.Millisecond})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJob(t, ts, `{"experiments":["E1"],"seed_count":4,"trials":2,"maxk_max":4}`)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	for round := 0; round < 2; round++ {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got.Status != jobs.JobCancelled {
			t.Fatalf("cancel round %d: status %d, job %+v", round, resp.StatusCode, got)
		}
	}
	fin := waitJobHTTP(t, ts, st.ID)
	if fin.Status != jobs.JobCancelled || fin.Cancelled != 4 {
		t.Fatalf("final status after cancel: %+v", fin)
	}
}

// TestServiceHealthzReportsLoad: the /healthz body carries the admission
// queue depth and the active batch-job count, so balancers can shed
// proportionally before hitting 503s.
func TestServiceHealthzReportsLoad(t *testing.T) {
	s := newTestServer(t, Options{RunTimeout: 20 * time.Millisecond})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var idle struct {
		Status     string `json:"status"`
		QueueDepth int64  `json:"queue_depth"`
		ActiveJobs int64  `json:"active_jobs"`
	}
	if resp := getJSON(t, ts, "/healthz", &idle); resp.StatusCode != http.StatusOK {
		t.Fatalf("idle healthz: %d", resp.StatusCode)
	}
	if idle.Status != "ok" || idle.QueueDepth != 0 || idle.ActiveJobs != 0 {
		t.Fatalf("idle healthz body: %+v", idle)
	}

	_, body := postJob(t, ts, `{"experiments":["E1"],"trials":2,"maxk_max":4}`)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	var busy struct {
		ActiveJobs int64 `json:"active_jobs"`
	}
	getJSON(t, ts, "/healthz", &busy)
	if busy.ActiveJobs != 1 {
		t.Fatalf("active_jobs with one running job: %d", busy.ActiveJobs)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJobHTTP(t, ts, st.ID)
}

// TestServiceJobsResumeAcrossServers is the service-level crash-resume
// proof: a server with a jobs dir goes down mid-job (drain budget expired,
// so in-flight cells are hard-interrupted and no terminal record is
// written), and a fresh server on the same dir resumes the job, recomputing
// only the cells the first server never journaled.
func TestServiceJobsResumeAcrossServers(t *testing.T) {
	dir := t.TempDir()
	var phase1Calls atomic.Int32
	s1 := newTestServer(t, Options{JobsDir: dir, JobConcurrency: 2, RunTimeout: 100 * time.Millisecond})
	s1.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		if phase1Calls.Add(1) > 2 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return stubTable(id, cfg), nil
	}
	ts1 := httptest.NewServer(s1.Handler())

	_, body := postJob(t, ts1, `{"experiments":["E7"],"seed_start":31,"seed_count":2,"trials":2,"maxk_min":4,"maxk_max":5}`)
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur jobs.Status
		getJSON(t, ts1, "/v1/jobs/"+st.ID+"?tables=0", &cur)
		if cur.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 never journaled 2 cells: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Shutdown with an already-expired drain budget: the two blocked cells
	// are hard-interrupted, and by design no terminal record is written.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = s1.Shutdown(expired)
	ts1.Close()

	// The resumed manager starts dispatching inside New, before a test could
	// swap runFn — so the missing cells run the real experiment (E7 at 2
	// trials is cheap, and it reads every config field, so the four cells
	// have four keys), and "recomputed only what the crash destroyed" is
	// asserted through the service ledger: every resumed cell goes through
	// runCached, so s2's request count is exactly the number of reruns.
	s2 := newTestServer(t, Options{JobsDir: dir, JobConcurrency: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var resumed jobs.Status
	if resp := getJSON(t, ts2, "/v1/jobs/"+st.ID+"?tables=0", &resumed); resp.StatusCode != http.StatusOK {
		t.Fatalf("job not resumed: status %d", resp.StatusCode)
	}
	fin := waitJobHTTP(t, ts2, st.ID)
	if fin.Status != jobs.JobCompleted || fin.Completed != 4 {
		t.Fatalf("resumed final status: %+v", fin)
	}
	m := fetchMetrics(t, ts2.URL)
	if m.Service.Requests != 2 {
		t.Fatalf("resume ran %d cells through the service, want exactly the 2 the kill destroyed", m.Service.Requests)
	}
	if m.Jobs.CellsCompleted != 4 || m.Jobs.JobsCompleted != 1 || m.Jobs.CellsInFlight != 0 || m.Jobs.CellsPending != 0 {
		t.Fatalf("resumed jobs ledger: %+v", m.Jobs)
	}
	// The two journaled cells must have survived verbatim: their bodies are
	// the phase-1 stub tables, not real experiment output.
	stubs := 0
	for _, c := range fin.Cells {
		var tab core.Table
		if err := json.Unmarshal(c.Table, &tab); err != nil {
			t.Fatalf("cell %s table does not decode: %v", c.Key, err)
		}
		if tab.Title == "stub" {
			stubs++
		}
	}
	if stubs != 2 {
		t.Fatalf("journal preserved %d phase-1 bodies, want 2", stubs)
	}
}
