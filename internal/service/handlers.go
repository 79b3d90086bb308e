package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobs"
)

// runRequest is the POST /v1/run body. Absent config fields keep the
// defaults the committed EXPERIMENTS.md numbers were produced with, so
// {"experiment":"E3"} alone is a valid request.
type runRequest struct {
	Experiment string      `json:"experiment"`
	Config     core.Config `json:"config"`
}

// RunResponse is the POST /v1/run reply. Table carries the experiment's
// versioned Table JSON verbatim — the same bytes whether the run was fresh,
// coalesced onto a concurrent identical run, or replayed from the cache;
// only the envelope's cached/coalesced markers differ. Table is the last
// field and is omitted when empty, which is how writeRun encodes the
// envelope alone before splicing the table in.
type RunResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Key           string          `json:"key"` // content address (core.CacheKey)
	Cached        bool            `json:"cached"`
	Coalesced     bool            `json:"coalesced,omitempty"`
	Experiment    string          `json:"experiment"`
	Config        core.Config     `json:"config"`
	Table         json.RawMessage `json:"table,omitempty"`
}

// errorResponse is every non-2xx body. Field names the offending config
// field (JSON name) when the error is a typed core.ConfigError.
type errorResponse struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// jsonFieldForConfigField maps ConfigError.Field to the request's JSON
// field, the service-side analogue of the CLI's field → flag map.
var jsonFieldForConfigField = map[string]string{
	"Seed":   "seed",
	"Trials": "trials",
	"MaxK":   "max_k",
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errcheck the client is gone if encoding to it fails; nothing to do
	_ = enc.Encode(v)
}

// writeError maps an error onto a status and a typed body.
func writeError(w http.ResponseWriter, err error) {
	resp := errorResponse{Error: err.Error()}
	status := http.StatusInternalServerError
	var ce *core.ConfigError
	switch {
	case errors.As(err, &ce):
		status = http.StatusBadRequest
		resp.Field = jsonFieldForConfigField[ce.Field]
	case errors.Is(err, core.ErrUnknownExperiment):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrBadSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded), errors.Is(err, jobs.ErrTooManyJobs):
		// Shed by the bounded admission queue (or the jobs admission bound):
		// tell well-behaved clients when to come back instead of letting
		// them hammer a loaded server.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, jobs.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The requester went away while queued or coalesced; the status is
		// for the log's benefit only.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleRun serves POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// Chaos: the handler-level injection point fires before any request
	// state exists, so a panic here proves the recovery middleware alone
	// keeps the process alive; errors map to a plain 500.
	if err := fault.Fire(fault.PointServiceHandler); err != nil {
		writeError(w, err)
		return
	}
	req := runRequest{Config: core.DefaultConfig()}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid request body: " + err.Error()})
		return
	}
	if req.Experiment == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `missing "experiment"`})
		return
	}
	// Validate up front so malformed requests fail fast with a field name
	// instead of consuming a semaphore slot.
	if err := req.Config.Validate(); err != nil {
		writeError(w, err)
		return
	}
	if _, ok := core.Lookup(req.Experiment); !ok {
		writeError(w, fmt.Errorf("%w %q", core.ErrUnknownExperiment, req.Experiment))
		return
	}

	body, key, oc, err := s.runCached(r.Context(), req.Experiment, req.Config)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRun(w, RunResponse{
		SchemaVersion: core.SnapshotSchemaVersion,
		Key:           key,
		Cached:        oc == outcomeHit,
		Coalesced:     oc == outcomeCoalesced,
		Experiment:    req.Experiment,
		Config:        req.Config,
	}, body)
}

// writeRun writes a 200 reply of resp with table as its Table, the bytes
// writeJSON would write for it, without re-encoding the table: it encodes
// the envelope (resp without Table), then indents the table once into
// place and closes the object. table is json.Marshal output, already
// compact with HTML escaped, so indenting it is all the encoder's own
// pass over a RawMessage would do.
func writeRun(w http.ResponseWriter, resp RunResponse, table []byte) {
	env, err := json.MarshalIndent(resp, "", "  ")
	var b bytes.Buffer
	if err == nil {
		b.Grow(len(env) + 2*len(table))
		b.Write(env[:len(env)-len("\n}")])
		b.WriteString(",\n  \"table\": ")
		err = json.Indent(&b, table, "  ", "  ")
		b.WriteString("\n}\n")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		//lint:ignore errcheck the client is gone if writing to it fails; nothing to do
		_, _ = w.Write(b.Bytes())
	}
}

// ExperimentInfo is one GET /v1/experiments row, mirroring `cadaptive -list`.
type ExperimentInfo struct {
	ID      string `json:"id"`
	Source  string `json:"source"`
	Summary string `json:"summary"`
	// Inputs names the request config fields (seed, trials, max_k) the
	// experiment reads — exactly the fields its result's key covers, so
	// requests that differ only in the others share one cached table.
	Inputs []string `json:"inputs"`
}

// ListExperiments returns the registry's rows in ID order, as GET
// /v1/experiments serves them.
func ListExperiments() []ExperimentInfo {
	exps := core.Experiments()
	out := make([]ExperimentInfo, len(exps))
	for i, e := range exps {
		out[i] = ExperimentInfo{ID: e.ID, Source: e.Source, Summary: e.Summary, Inputs: e.Inputs.Names()}
	}
	return out
}

// handleExperiments serves GET /v1/experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}{ListExperiments()})
}

// handleJobSubmit serves POST /v1/jobs: validate, admit, journal, return
// 202 with the job's initial status — the cells run in the background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid job spec: " + err.Error()})
		return
	}
	st, err := s.jobs.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobList serves GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []*jobs.Status `json:"jobs"`
	}{s.jobs.List()})
}

// handleJobGet serves GET /v1/jobs/{id}: progress counts plus per-cell
// detail with the completed cells' tables — partial results stream out
// while the job still runs. ?tables=0 omits the cell detail.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	withCells := r.URL.Query().Get("tables") != "0"
	st, ok := s.jobs.Status(r.PathValue("id"), withCells)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobCancel serves DELETE /v1/jobs/{id}: pending cells cancel
// immediately, in-flight cells are interrupted, and the cancellation is
// journaled so a restart does not resurrect the job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz serves GET /healthz. Once Shutdown has begun it answers
// 503 "draining" so load balancers stop routing to this instance while its
// in-flight runs finish. The body carries the admission queue depth and
// the active batch-job count so load balancers can shed proportionally
// *before* requests start bouncing off the 503 admission path.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, "ok"
	if s.Draining() {
		status, body = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, struct {
		Status     string `json:"status"`
		QueueDepth int64  `json:"queue_depth"`
		ActiveJobs int64  `json:"active_jobs"`
	}{body, s.met.queued.Load(), s.jobs.Ledger().JobsActive})
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK,
		s.met.snapshot(s.cache.stats(), s.opts, s.workers(), s.Draining(), s.jobs.Ledger()))
}
