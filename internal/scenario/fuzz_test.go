package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario/servetest"
)

// FuzzSpecNormalize fuzzes the one decoder of the front door that faces the
// network: arbitrary bytes JSON-decoded into a Spec. Whenever Normalize
// accepts, it must be idempotent — the front door normalizes once at Submit
// and trusts that spec for the whole life of the job — Hash must agree
// across the two passes, the shards execution hint must never move the
// hash, and nothing may panic. The corpus is seeded from the specs of
// spec_test.go and fidelity_test.go.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"workflow":"Prediction","state":"va"}`,
		`{"workflow":"whatif","state":"VA"}`,
		`{"workflow":"night"}`,
		`{"workflow":"night","night":{"family":"Calibration","cells":4,"replicates":3,"heuristic":"NFDT-DC","seed":9}}`,
		`{"workflow":"prediction","state":"VA","days":120,"replicates":15,"sh_start":15,"sh_end":120,` +
			`"configs":[{"tau":0.16,"symp":0.65,"sh_compliance":0.6,"vhi_compliance":0.5}]}`,
		`{"workflow":"whatif","state":"RI","days":25,"replicates":1,` +
			`"whatifs":[{"name":"sh-lifted-1w-early","sh_end_shift":-7},{"name":"tracing","pivot_day":20,"add_tracing":2,"trace_detect_prob":0.5}]}`,
		`{"workflow":"prediction","state":"VA","fidelity":"  Auto "}`,
		`{"workflow":"prediction","state":"VA","fidelity":"abm","max_uncertainty":0.2}`,
		`{"max_uncertainty":0.25,"state":"VA","fidelity":"auto","workflow":"whatif"}`,
		`{"workflow":"prediction","state":"VA","days":60,"shards":8}`,
		`{"workflow":"prediction","state":"ZZ"}`,
		`{"workflow":"prediction","state":"VA","days":367}`,
		`{"workflow":"bogus"}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		once, err := spec.Normalize()
		if err != nil {
			return
		}
		twice, err := once.Normalize()
		if err != nil {
			t.Fatalf("Normalize rejected its own output: %v\nspec %+v", err, once)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", once, twice)
		}
		h1, err := once.Hash("fp")
		if err != nil {
			t.Fatalf("Hash of a normalized spec: %v", err)
		}
		if h2, err := twice.Hash("fp"); err != nil || h2 != h1 {
			t.Fatalf("Hash differs across Normalize passes: %s vs %s (%v)", h1, h2, err)
		}
		hinted := spec
		hinted.Shards = 7
		hn, err := hinted.Normalize()
		if err != nil {
			t.Fatalf("a valid shards hint made the spec invalid: %v", err)
		}
		if h3, err := hn.Hash("fp"); err != nil || h3 != h1 {
			t.Fatalf("the shards hint changed the hash: %s vs %s (%v)", h1, h3, err)
		}
	})
}

// FuzzSubmitHandler drives POST /scenarios with arbitrary body bytes,
// priority and wait values and X-Request-Id, over a service whose runner
// finishes at once. Whatever arrives, the reply is one of the documented
// statuses with a JSON body, the echoed request ID is a valid one (the
// client's when it was valid) whose trace GET /debug/requests/{id} finds,
// and the drained service holds no job, queue entry or goroutine. The
// corpus seeds the trailing-data bodies and free-form workflow names the
// handler once accepted or labelled its metrics with, and the request IDs
// it once echoed and journaled whole.
func FuzzSubmitHandler(f *testing.F) {
	const spec = `{"workflow":"prediction","state":"VA","days":10}`
	for _, seed := range []struct{ body, priority, xPriority, wait, reqID string }{
		{spec, "", "", "", ""},
		{spec, "", "", "1", ""},
		{spec + ` trailing`, "", "", "", ""},
		{spec + `{"workflow":"night"}`, "batch", "", "1", ""},
		{spec + "\n", "", "interactive", "0", ""},
		{`{"workflow":"bogus0"}`, "", "", "", ""},
		{`{"workflow":"night"}`, "normal", "batch", "true", ""},
		{`{"workflow":"whatif","state":"RI","days":20}`, "bogus", "", "1", ""},
		{`{not json`, "", "", "", ""},
		{``, "", "", "false", ""},
		{spec, "", "", "1", "feedfacefeedface"},
		{spec, "", "", "1", strings.Repeat("a", 100000)},
		{spec, "", "", "", strings.Repeat("b", 65)},
		{`{not json`, "", "", "", "retry id/with\nbad bytes"},
		{spec, "", "", "1", ".."},
		{spec, "", "", "", "Client_7.retry-2"},
	} {
		f.Add([]byte(seed.body), seed.priority, seed.xPriority, seed.wait, seed.reqID)
	}
	instant := func(context.Context, Spec) (*Result, error) { return &Result{}, nil }
	validID := regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)
	f.Fuzz(func(t *testing.T, body []byte, priority, xPriority, wait, reqID string) {
		goroutinesBefore := runtime.NumGoroutine()
		svc := NewService(Config{Workers: 1, QueueCap: 2, Runner: instant, Fingerprint: "fuzz"})
		h := NewServer(svc, NewServingObs(obs.NewRegistry(), ServingObsConfig{RecorderCapacity: 4}))
		q := url.Values{}
		if priority != "" {
			q.Set("priority", priority)
		}
		if wait != "" {
			q.Set("wait", wait)
		}
		req := httptest.NewRequest(http.MethodPost, "/scenarios?"+q.Encode(), bytes.NewReader(body))
		if xPriority != "" {
			req.Header.Set("X-Priority", xPriority)
		}
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d reply is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		echoed := rec.Header().Get("X-Request-Id")
		if !validID.MatchString(echoed) || echoed == "." || echoed == ".." {
			t.Fatalf("echoed request ID %.80q for client ID %.80q", echoed, reqID)
		}
		if validID.MatchString(reqID) && reqID != "." && reqID != ".." && echoed != reqID {
			t.Fatalf("valid client ID %q echoed as %q", reqID, echoed)
		}
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/debug/requests/"+echoed, nil))
		if get.Code != http.StatusOK {
			t.Fatalf("GET /debug/requests/%s: status %d", echoed, get.Code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		servetest.AssertQuiesced(t, svc, goroutinesBefore)
	})
}

// fuzzJobRoute drives one job-ID route — method and the path around the ID
// — with an arbitrary ID and X-Request-Id, over a service holding one
// finished job. When known is set the path carries that job's ID followed
// by id, so an empty id names the job and any other is a near miss. The
// reply is never a 5xx, every 4xx carries a JSON error body, the echoed
// request ID follows the submit route's rule and names a trace the flight
// recorder holds, and the drained service is quiescent. An ID of "", "."
// or ".." leaves an empty or dot segment, which the mux may answer with a
// redirect to the cleaned path; it never reaches the route and is skipped.
func fuzzJobRoute(f *testing.F, method, suffix string) {
	for _, seed := range []struct {
		id, reqID string
		known     bool
	}{
		{"", "", true},
		{"", "feedfacefeedface", true},
		{"/", "", false},
		{"x", "", true},
		{"0123abcd", "", false},
		{"a/b?c#d", "..", false},
		{"%2F..%00", strings.Repeat("b", 65), false},
		{"\xff\x00 spaces\n", "retry id/with\nbad bytes", false},
		{strings.Repeat("f", 4096), "Client_7.retry-2", false},
	} {
		f.Add(seed.id, seed.reqID, seed.known)
	}
	instant := func(context.Context, Spec) (*Result, error) { return &Result{}, nil }
	validID := regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)
	f.Fuzz(func(t *testing.T, id, reqID string, known bool) {
		if !known && (id == "" || id == "." || id == "..") {
			t.Skip("cleaned by the mux")
		}
		goroutinesBefore := runtime.NumGoroutine()
		svc := NewService(Config{Workers: 1, QueueCap: 2, Runner: instant, Fingerprint: "fuzz"})
		h := NewServer(svc, NewServingObs(obs.NewRegistry(), ServingObsConfig{RecorderCapacity: 4}))
		job, err := svc.SubmitCtx(context.Background(), Spec{Workflow: WorkflowPrediction, State: "VA", Days: 10}, PriorityNormal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if known {
			id = job.Status().ID + id
		}
		req := httptest.NewRequest(method, "/scenarios/"+url.PathEscape(id)+suffix, nil)
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", method, id, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 400 {
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("%s %q: status %d body is not a JSON error: %q", method, id, rec.Code, rec.Body.Bytes())
			}
		}
		echoed := rec.Header().Get("X-Request-Id")
		if !validID.MatchString(echoed) || echoed == "." || echoed == ".." {
			t.Fatalf("echoed request ID %.80q for client ID %.80q", echoed, reqID)
		}
		if validID.MatchString(reqID) && reqID != "." && reqID != ".." && echoed != reqID {
			t.Fatalf("valid client ID %q echoed as %q", reqID, echoed)
		}
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/debug/requests/"+echoed, nil))
		if get.Code != http.StatusOK {
			t.Fatalf("GET /debug/requests/%s: status %d", echoed, get.Code)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		servetest.AssertQuiesced(t, svc, goroutinesBefore)
	})
}

// FuzzStatusHandler fuzzes GET /scenarios/{id} (fuzzJobRoute).
func FuzzStatusHandler(f *testing.F) { fuzzJobRoute(f, http.MethodGet, "") }

// FuzzResultHandler fuzzes GET /scenarios/{id}/result (fuzzJobRoute).
func FuzzResultHandler(f *testing.F) { fuzzJobRoute(f, http.MethodGet, "/result") }

// FuzzCancelHandler fuzzes DELETE /scenarios/{id} (fuzzJobRoute).
func FuzzCancelHandler(f *testing.F) { fuzzJobRoute(f, http.MethodDelete, "") }
