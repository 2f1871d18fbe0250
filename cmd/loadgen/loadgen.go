package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// LoadgenConfig parameterizes a load run against a scenario front door.
type LoadgenConfig struct {
	// BaseURL is the server root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Clients is the number of concurrent closed-loop clients (default 64).
	Clients int
	// Requests is the total request budget across clients (default 4 per
	// client). Each client issues its share back to back.
	Requests int
	// SpecFor produces the spec for one request; nil uses a cache-missing
	// prediction profile (every request a distinct spec, so throughput
	// measures computation, not cache hits).
	SpecFor func(client, seq int) scenario.Spec
	// Priority is the admission class query parameter ("" = normal).
	Priority string
	// PriorityFor overrides Priority per request (the -mix profile); nil
	// sends every request at Priority.
	PriorityFor func(client, seq int) string
	// Client overrides the HTTP client (default: pooled, 30s timeout).
	Client *http.Client
	// Registry, when set, receives the run's latency histogram and
	// throughput gauge under epi_loadgen_* (the PR 5 metrics surface).
	Registry *obs.Registry
}

// PriorityStats is the per-class latency breakdown in a LoadgenReport.
type PriorityStats struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// LoadgenReport summarizes one load run.
type LoadgenReport struct {
	Clients    int           `json:"clients"`
	Requests   int           `json:"requests"`
	OK         int           `json:"ok"`
	Errors     int           `json:"errors"`
	StatusDist map[int]int   `json:"status_dist"`
	Elapsed    time.Duration `json:"-"`
	ElapsedSec float64       `json:"elapsed_seconds"`
	P50        time.Duration `json:"-"`
	P99        time.Duration `json:"-"`
	P50ms      float64       `json:"p50_ms"`
	P99ms      float64       `json:"p99_ms"`
	Throughput float64       `json:"throughput_rps"`
	// ByPriority breaks latency down per admission class actually sent.
	ByPriority map[string]PriorityStats `json:"by_priority,omitempty"`
	// SlowestID echoes the server's X-Request-Id for the slowest request of
	// the run, ready to paste into GET /debug/requests/{id}.
	SlowestID string  `json:"slowest_request_id,omitempty"`
	SlowestMS float64 `json:"slowest_ms"`
}

// DefaultSpecFor is the cache-miss traffic profile: unique prediction
// specs, distinguished by a (client, seq)-derived parameter wiggle small
// enough to stay inside validation bounds.
func DefaultSpecFor(client, seq int) scenario.Spec {
	n := client*1000 + seq
	return scenario.Spec{
		Workflow:   scenario.WorkflowPrediction,
		State:      "VA",
		Days:       30,
		Replicates: 2,
		Configs: []scenario.ParamSpec{{
			TAU:  0.16 + float64(n%100000)*1e-7,
			SYMP: 0.65, SHCompliance: 0.6, VHICompliance: 0.5,
		}},
	}
}

// RunLoadgen drives Clients concurrent synchronous submissions (?wait=1)
// against BaseURL and reports client-side p50/p99 latency and sustained
// throughput. Requests that return a non-200 status count as errors but
// still book their latency into the distribution of record — a load proof
// that silently dropped its failures would overstate the service.
func RunLoadgen(cfg LoadgenConfig) (LoadgenReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 64
	}
	if cfg.Requests <= 0 {
		cfg.Requests = cfg.Clients * 4
	}
	if cfg.SpecFor == nil {
		cfg.SpecFor = DefaultSpecFor
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: cfg.Clients, MaxIdleConnsPerHost: cfg.Clients,
			},
		}
	}
	baseURL := cfg.BaseURL + "/scenarios?wait=1"

	perClient := (cfg.Requests + cfg.Clients - 1) / cfg.Clients
	type sample struct {
		lat   time.Duration
		ok    bool
		st    int
		pri   string
		reqID string
	}
	samples := make([][]sample, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	issued := 0
	for ci := 0; ci < cfg.Clients; ci++ {
		n := perClient
		if rem := cfg.Requests - issued; n > rem {
			n = rem
		}
		issued += n
		if n == 0 {
			break
		}
		wg.Add(1)
		go func(ci, n int) {
			defer wg.Done()
			for seq := 0; seq < n; seq++ {
				spec := cfg.SpecFor(ci, seq)
				pri := cfg.Priority
				if cfg.PriorityFor != nil {
					pri = cfg.PriorityFor(ci, seq)
				}
				url := baseURL
				if pri != "" {
					url += "&priority=" + pri
				}
				if pri == "" {
					pri = "normal"
				}
				body, err := json.Marshal(spec)
				if err != nil {
					samples[ci] = append(samples[ci], sample{ok: false, pri: pri})
					continue
				}
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					samples[ci] = append(samples[ci], sample{ok: false, pri: pri})
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(t0)
				s := sample{lat: lat, pri: pri}
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					s.st = resp.StatusCode
					s.ok = resp.StatusCode == http.StatusOK
					// The server mints (or echoes) a request trace ID; keep it
					// so the slowest request can be pulled from the flight
					// recorder afterwards.
					s.reqID = resp.Header.Get("X-Request-Id")
				}
				samples[ci] = append(samples[ci], s)
			}
		}(ci, n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadgenReport{Clients: cfg.Clients, StatusDist: map[int]int{}}
	var lats []time.Duration
	byPri := map[string][]time.Duration{}
	priOK := map[string]int{}
	for _, cs := range samples {
		for _, s := range cs {
			rep.Requests++
			if s.ok {
				rep.OK++
				priOK[s.pri]++
			} else {
				rep.Errors++
			}
			if s.st != 0 {
				rep.StatusDist[s.st]++
			}
			lats = append(lats, s.lat)
			byPri[s.pri] = append(byPri[s.pri], s.lat)
			if s.reqID != "" && (rep.SlowestID == "" || s.lat > time.Duration(rep.SlowestMS*float64(time.Millisecond))) {
				rep.SlowestID = s.reqID
				rep.SlowestMS = float64(s.lat) / float64(time.Millisecond)
			}
		}
	}
	if rep.Requests == 0 {
		return rep, fmt.Errorf("loadgen: issued no requests")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.P50 = quantile(lats, 0.50)
	rep.P99 = quantile(lats, 0.99)
	rep.P50ms = float64(rep.P50) / float64(time.Millisecond)
	rep.P99ms = float64(rep.P99) / float64(time.Millisecond)
	rep.Elapsed = elapsed
	rep.ElapsedSec = elapsed.Seconds()
	rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	rep.ByPriority = map[string]PriorityStats{}
	for pri, ls := range byPri {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		rep.ByPriority[pri] = PriorityStats{
			Requests: len(ls),
			OK:       priOK[pri],
			P50ms:    float64(quantile(ls, 0.50)) / float64(time.Millisecond),
			P99ms:    float64(quantile(ls, 0.99)) / float64(time.Millisecond),
		}
	}

	if cfg.Registry != nil {
		cfg.Registry.Help("epi_loadgen_latency_seconds", "client-observed request latency")
		h := cfg.Registry.Histogram("epi_loadgen_latency_seconds", nil)
		for _, l := range lats {
			h.Observe(l.Seconds())
		}
		cfg.Registry.Help("epi_loadgen_throughput_rps", "completed requests per second over the run")
		cfg.Registry.Gauge("epi_loadgen_throughput_rps").Set(rep.Throughput)
		cfg.Registry.Help("epi_loadgen_requests_total", "requests issued by the load generator")
		cfg.Registry.Counter("epi_loadgen_requests_total").Add(int64(rep.Requests))
	}
	return rep, nil
}

// quantile reads the q-quantile from sorted latencies (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
