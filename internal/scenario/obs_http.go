package scenario

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ServingObsConfig parameterizes the serving tier's request observability.
type ServingObsConfig struct {
	// RecorderCapacity bounds the flight recorder's main ring (default 256).
	RecorderCapacity int
	// SLOTarget is the latency a good request must meet (-slo-p99). Zero
	// disables the latency criterion. The flight recorder always keeps
	// traces at least this slow (at least 1s when zero).
	SLOTarget time.Duration
	// SLOObjective is the good-fraction objective (default 0.99).
	SLOObjective float64
	// SLOWindow is the long burn window (default 1h).
	SLOWindow time.Duration
	// Journal optionally tees every trace entry (stamped with the request
	// ID) into a JSONL sink — the flight recorder's durable export.
	Journal obs.Sink
}

// ServingObs is the request-scoped observability bundle the HTTP layer
// wires in: a per-request trace (span tree through admission, queue wait,
// run, fidelity, engine), the flight recorder holding the
// last N traces, RED series, and SLO burn tracking. A nil *ServingObs is
// valid and inert — the server behaves exactly as before the layer
// existed, which is what the overhead benchmark's "off" arm measures.
type ServingObs struct {
	recorder *obs.Recorder
	slo      *obs.SLOSet
	journal  obs.Sink
	reg      *obs.Registry

	// redMu guards red, a cache of resolved RED series handles keyed by
	// (workflow, priority, code): series names are assembled and looked up
	// in the registry once per distinct key, not once per request.
	redMu sync.RWMutex
	red   map[redKey]redSeries
}

// redKey identifies one RED series combination.
type redKey struct {
	workflow, priority string
	code               int
}

// redSeries holds the resolved registry handles for one key.
type redSeries struct {
	requests *obs.Counter
	seconds  *obs.Histogram
}

// NewServingObs builds the bundle over the backend's registry (reg may be
// nil: metrics are skipped, traces and recorder still work).
func NewServingObs(reg *obs.Registry, cfg ServingObsConfig) *ServingObs {
	slow := cfg.SLOTarget
	if slow <= 0 {
		slow = time.Second
	}
	so := &ServingObs{
		recorder: obs.NewRecorder(cfg.RecorderCapacity, slow),
		journal:  cfg.Journal,
		reg:      reg,
	}
	so.slo = obs.NewSLOSet(obs.SLOConfig{
		Target:    cfg.SLOTarget,
		Objective: cfg.SLOObjective,
		Window:    cfg.SLOWindow,
	}, reg)
	if reg != nil {
		reg.Help("epi_http_requests_total", "served requests by workflow/priority/code")
		reg.Help("epi_http_request_seconds", "request latency by workflow/priority")
		reg.Help("epi_slo_burn_rate", "SLO error-budget burn rate per rolling window (1.0 = budget consumed exactly at the sustainable rate)")
	}
	return so
}

// Recorder exposes the flight recorder (tests, episerve).
func (so *ServingObs) Recorder() *obs.Recorder {
	if so == nil {
		return nil
	}
	return so.recorder
}

// statusWriter captures the response code for the trace and RED series.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Middleware traces one handler: accept a valid X-Request-Id or mint one,
// attach a request trace to the context, and on return record the trace,
// observe the RED series, and book the SLO outcome. A nil receiver returns
// h untouched — zero overhead when serving observability is off.
func (so *ServingObs) Middleware(h http.HandlerFunc) http.HandlerFunc {
	if so == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = ""
		}
		rt := obs.NewRequestTrace(id, nil, so.journal)
		w.Header().Set("X-Request-Id", rt.ID())
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(rt.Attach(r.Context())))
		elapsed := time.Since(start)
		code := sw.code
		if code == 0 {
			// Handler wrote nothing (e.g. client disconnected mid-wait).
			code = http.StatusOK
			if r.Context().Err() != nil {
				code = 499 // client closed request
			}
		}
		rt.Finish(code, "")
		so.recorder.Record(rt)
		so.observe(rt.Workflow(), rt.Priority(), code, elapsed)
	}
}

// validRequestID reports whether a client's X-Request-Id may name its
// trace: 1–64 bytes of [A-Za-z0-9._-], and not "." or "..", which a URL
// path cannot carry to /debug/requests/{id}. The ID is echoed, stamped on
// every journal entry and held by the flight recorder, so anything else is
// replaced by a minted one.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// observe books one request into the RED series and SLO trackers.
func (so *ServingObs) observe(workflow, priority string, code int, elapsed time.Duration) {
	if workflow == "" {
		workflow = "other"
	}
	if priority == "" {
		priority = "none"
	}
	if so.reg != nil {
		s := so.redFor(workflow, priority, code)
		s.requests.Inc()
		s.seconds.Observe(elapsed.Seconds())
	}
	so.slo.Observe(workflow, priority, code, elapsed)
}

// redFor resolves (and caches) the RED series handles for one key. The
// cardinality is tiny — workflows × priorities × status codes — so the
// cache never needs eviction.
func (so *ServingObs) redFor(workflow, priority string, code int) redSeries {
	k := redKey{workflow: workflow, priority: priority, code: code}
	so.redMu.RLock()
	s, ok := so.red[k]
	so.redMu.RUnlock()
	if ok {
		return s
	}
	s = redSeries{
		requests: so.reg.Counter(`epi_http_requests_total{workflow="` + workflow +
			`",priority="` + priority + `",code="` + strconv.Itoa(code) + `"}`),
		seconds: so.reg.Histogram(`epi_http_request_seconds{workflow="`+workflow+
			`",priority="`+priority+`"}`, nil),
	}
	so.redMu.Lock()
	if so.red == nil {
		so.red = make(map[redKey]redSeries)
	}
	so.red[k] = s
	so.redMu.Unlock()
	return s
}

// handleDebugList serves GET /debug/requests: newest-first trace
// summaries; ?limit=N bounds the listing (default 64).
func (so *ServingObs) handleDebugList(w http.ResponseWriter, r *http.Request) {
	limit := 64
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    so.recorder.Len(),
		"requests": so.recorder.List(limit),
	})
}

// handleDebugGet serves GET /debug/requests/{id}: the full span tree. A
// trace still being filled by an async job shows the spans closed so far.
func (so *ServingObs) handleDebugGet(w http.ResponseWriter, r *http.Request) {
	rt := so.recorder.Get(r.PathValue("id"))
	if rt == nil {
		writeError(w, http.StatusNotFound, "unknown request id")
		return
	}
	writeJSON(w, http.StatusOK, rt.Snapshot())
}

// handleSLO serves GET /slo: the aggregate and per-series burn reports.
func (so *ServingObs) handleSLO(w http.ResponseWriter, _ *http.Request) {
	reports := so.slo.Reports()
	out := map[string]any{"aggregate": reports[""]}
	series := map[string]obs.SLOReport{}
	for k, v := range reports {
		if k != "" {
			series[k] = v
		}
	}
	if len(series) > 0 {
		out["series"] = series
	}
	writeJSON(w, http.StatusOK, out)
}
