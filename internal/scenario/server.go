package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Server exposes a Service over HTTP:
//
//	POST   /scenarios             submit a spec (JSON body); ?wait=1 blocks,
//	                              ?priority=interactive|normal|batch classifies
//	GET    /scenarios/{id}        poll job status
//	GET    /scenarios/{id}/result fetch the result when done
//	DELETE /scenarios/{id}        cancel a queued or running job
//	GET    /healthz               liveness
//	GET    /readyz                readiness (workers up; fidelity tiers warm)
//	GET    /metrics               the registry in Prometheus text exposition
//
// Submit responses carry the spec's content address as the job ID, so
// clients can re-derive, share and re-poll result URLs.
//
// Backpressure contract (pinned by server_test.go):
//
//	body over maxSpecBytes → 413
//	ErrQueueFull → 429, Retry-After: 1, body reason "queue_full"
//	*ShedError   → 429, Retry-After: 5, body reason "shed" (class included)
//	ErrDraining  → 503, body reason "draining"
type Server struct {
	svc *Service
	mux *http.ServeMux
	obs *ServingObs
}

// NewServer wires the routes over a service. An optional ServingObs traces
// the scenario routes (submit/status/result/cancel), records every request
// into the flight recorder at /debug/requests, and serves SLO burn at /slo;
// without it the server behaves exactly as before the layer existed.
func NewServer(svc *Service, so ...*ServingObs) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	if len(so) > 0 {
		s.obs = so[0]
	}
	s.mux.HandleFunc("POST /scenarios", s.obs.Middleware(s.handleSubmit))
	s.mux.HandleFunc("GET /scenarios/{id}", s.obs.Middleware(s.handleStatus))
	s.mux.HandleFunc("GET /scenarios/{id}/result", s.obs.Middleware(s.handleResult))
	s.mux.HandleFunc("DELETE /scenarios/{id}", s.obs.Middleware(s.handleCancel))
	// A path under /scenarios/ that names no route — an empty ID, or an ID
	// of "/", which the mux matches to no {id} — still gets a JSON 404 and
	// a request ID.
	s.mux.HandleFunc("GET /scenarios/", s.obs.Middleware(handleNoRoute))
	s.mux.HandleFunc("DELETE /scenarios/", s.obs.Middleware(handleNoRoute))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.obs != nil {
		s.mux.HandleFunc("GET /debug/requests", s.obs.handleDebugList)
		s.mux.HandleFunc("GET /debug/requests/{id}", s.obs.handleDebugGet)
		s.mux.HandleFunc("GET /slo", s.obs.handleSLO)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) { writeBody(w, code, encodeJSON(v)) }

// encodeJSON is the reply body for v: indented JSON and a trailing newline.
// A value that cannot be encoded yields an empty body.
func encodeJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client is gone: nothing left to tell it
}

// writeResult writes a finished job's result: a result-store hit writes
// its entry's memoized bytes, anything else encodes res.
func writeResult(w http.ResponseWriter, job *Job, res *Result) {
	if job.entry != nil {
		writeBody(w, http.StatusOK, job.entry.body())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeReasonError is writeError plus a machine-readable "reason" field, so
// clients can distinguish responses sharing a status code (queue_full vs
// shed both map to 429 but call for different backoff).
func writeReasonError(w http.ResponseWriter, code int, reason, msg string, extra map[string]string) {
	body := map[string]string{"error": msg, "reason": reason}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, code, body)
}

// workflowLabel is the workflow label of a request's metrics: the workflow
// when it is one Normalize accepts, else "other". The body is client input,
// so a free-form label would mint series without bound.
func workflowLabel(workflow string) string {
	switch w := strings.ToLower(strings.TrimSpace(workflow)); w {
	case WorkflowPrediction, WorkflowWhatIf, WorkflowNight:
		return w
	}
	return "other"
}

// maxSpecBytes bounds a submit body. The largest spec Normalize accepts —
// MaxConfigs configurations and MaxWhatIfs what-ifs, indented — is a few
// kilobytes, so the bound only stops a body that could never be a valid
// spec from being decoded into memory.
const maxSpecBytes = 1 << 20

// handleSubmit admits a spec. Asynchronous submissions (the default) pin
// the job and return 202 with its status; ?wait=1 holds the request open
// until the job finishes and returns the result — and because the waiting
// request is the job's only interest, a client disconnect cancels the run.
// ?priority= (or X-Priority) selects the admission class.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	var tooBig *http.MaxBytesError
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	err := dec.Decode(&spec)
	if err == nil {
		// The spec must be the whole body: a second value or stray bytes
		// after it are refused, not silently ignored. Whitespace is legal.
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errors.New("trailing data")
		}
	}
	if err != nil {
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "spec body exceeds "+strconv.Itoa(maxSpecBytes)+" bytes")
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec JSON: "+err.Error())
		return
	}
	priStr := r.URL.Query().Get("priority")
	if priStr == "" {
		priStr = r.Header.Get("X-Priority")
	}
	pri, err := ParsePriority(priStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt := obs.RequestTraceFrom(r.Context())
	if rt != nil {
		rt.SetRequest(workflowLabel(spec.Workflow), pri.String())
	}
	job, err := s.svc.SubmitCtx(r.Context(), spec, pri)
	var shedErr *ShedError
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeReasonError(w, http.StatusTooManyRequests, "queue_full", err.Error(), nil)
		return
	case errors.As(err, &shedErr):
		w.Header().Set("Retry-After", "5")
		writeReasonError(w, http.StatusTooManyRequests, "shed", err.Error(),
			map[string]string{"priority": shedErr.Class.String()})
		return
	case errors.Is(err, ErrDraining):
		writeReasonError(w, http.StatusServiceUnavailable, "draining", err.Error(), nil)
		return
	default:
		var bad *BadSpecError
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	if rt != nil {
		rt.Annotate("hash", job.Hash)
	}

	wait := r.URL.Query().Get("wait")
	if wait == "" || wait == "0" || wait == "false" {
		job.Pin()
		job.Release()
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	// Synchronous: the request context carries the client's interest; when
	// the client disconnects, Release drops the job's last reference and
	// the run is cancelled. Release is deferred — not conditional on Wait's
	// error — so a ctx-expired waiter cannot leak its interest reference.
	defer job.Release()
	res, err := job.Wait(r.Context())
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing to write
		}
		code := http.StatusInternalServerError
		if job.Status().State == StateCanceled.String() {
			code = http.StatusConflict
		}
		writeError(w, code, err.Error())
		return
	}
	if rt != nil {
		if res.Tier != "" {
			rt.Annotate("tier", res.Tier)
			if res.Tier == "abm" {
				// The route decision may have fired on another request's
				// trace (single-flight): flag escalation from the result.
				rt.MarkEscalated()
			}
		}
		if res.Hash != "" {
			rt.Annotate("hash", res.Hash)
		}
	}
	writeResult(w, job, res)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.svc.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario")
		return
	}
	st := job.Status()
	switch st.State {
	case StateDone.String():
		// The job is terminal: Wait returns immediately, so don't race it
		// against the request context (a just-disconnected client could
		// otherwise turn a completed result into a spurious ctx error).
		res, err := job.Wait(context.Background())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeResult(w, job, res)
	case StateFailed.String():
		writeError(w, http.StatusInternalServerError, st.Error)
	case StateCanceled.String():
		writeError(w, http.StatusConflict, "scenario canceled")
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.svc.Cancel(id) {
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceling"})
		return
	}
	if _, ok := s.svc.Lookup(id); ok {
		writeError(w, http.StatusConflict, "scenario already finished")
		return
	}
	writeError(w, http.StatusNotFound, "unknown scenario")
}

func handleNoRoute(w http.ResponseWriter, _ *http.Request) {
	writeError(w, http.StatusNotFound, "unknown scenario")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.svc.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness, distinct from /healthz liveness: a live
// process may still be warming up (workers not started, no emulator fitted
// yet under fidelity serving). The body always carries the per-layer state
// so operators can see which gate is holding readiness back.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r := s.svc.Readiness()
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, r)
}

// handleMetrics serves the unified registry in Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Registry().WritePrometheus(w)
}
