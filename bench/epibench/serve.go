package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"time"
)

// env is what a run of one workload is given.
type env struct {
	bin     string // the built episerve
	seed    uint64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil with tracing off
}

// measured is the end-to-end outcome of one workload run.
type measured struct {
	setupS    float64
	attempted int
	failed    int
	latency   []time.Duration // successful ops, in op order
	// rounds are the slices of the measured phase that ops_per_s and
	// cpu_ms_per_op are medians over.
	rounds []round
	// tail holds the samples latency_tail_ms is read from at quantile
	// tailQ; nil means latency.
	tail      []time.Duration
	tailQ     float64
	rssMB     float64
	digest    string
	digestOps int
	errs      []string
}

// setupRepeats is how often a run sets up; setup_s is the median, and the
// last set-up is the one measured on.
const setupRepeats = 3

// repeatSetup runs setup setupRepeats times, discarding all but the last
// instance, and returns that instance with the median set-up time.
func repeatSetup[T any](setup func() (T, error), discard func(T) error) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r < setupRepeats-1 {
			if err := discard(inst); err != nil {
				return inst, 0, err
			}
		}
	}
	return inst, median(times), nil
}

// serveWorkload is a closed-loop workload against one episerve child.
type serveWorkload struct {
	flags  []string
	stride int
	warmup int
	// maxOps bounds a run; it is far above what --seconds allows.
	maxOps    int
	digestOps int
	tailQ     float64
	// prepare is the part of set-up that needs the running server before
	// the warm-up ops (serve-hot: training and catalogue fill).
	prepare func(ctx context.Context, s *server) error
	// request is op i of the stream; ops [0, warmup) warm up.
	request func(i int) request
	// check validates a 200 reply beyond its shape.
	check func(r request, body []byte) error
	// recheck is how many of the first measured ops are sent again after
	// the run; their replies must equal the first ones.
	recheck int
}

// reply is the part of a result body the benchmark checks.
type reply struct {
	Hash       string `json:"hash"`
	Workflow   string `json:"workflow"`
	Tier       string `json:"tier"`
	Prediction *struct {
		Confirmed band `json:"confirmed"`
	} `json:"prediction"`
	Scenarios []struct {
		Name      string `json:"name"`
		Confirmed band   `json:"confirmed"`
	} `json:"scenarios"`
}

type band struct {
	Median []float64 `json:"median"`
}

// checkCurve accepts a cumulative case curve: the horizon's length, finite
// and non-negative, and — from the exact ABM, which counts cases; a surrogate
// predicts each day on its own — never falling.
func checkCurve(c []float64, days int, exact bool) error {
	if len(c) != days {
		return fmt.Errorf("curve has %d days, want %d", len(c), days)
	}
	prev := 0.0
	for d, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("day %d: bad value %v", d, v)
		}
		if exact && v < prev-1e-9 {
			return fmt.Errorf("day %d: cumulative curve falls from %v to %v", d, prev, v)
		}
		prev = v
	}
	return nil
}

// checkReply checks the shape of a 200 reply against its request.
func checkReply(r request, body []byte) (*reply, error) {
	var rep reply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("reply is not JSON: %v", err)
	}
	if rep.Workflow != r.spec.Workflow || rep.Hash == "" {
		return nil, fmt.Errorf("reply workflow %q hash %q for a %s request", rep.Workflow, rep.Hash, r.spec.Workflow)
	}
	exact := rep.Tier == "" || rep.Tier == "abm"
	switch r.spec.Workflow {
	case "prediction":
		if rep.Prediction == nil {
			return nil, fmt.Errorf("prediction reply without a prediction")
		}
		return &rep, checkCurve(rep.Prediction.Confirmed.Median, r.spec.Days, exact)
	case "whatif":
		if len(rep.Scenarios) != len(r.spec.WhatIfs) {
			return nil, fmt.Errorf("%d scenarios for %d what-ifs", len(rep.Scenarios), len(r.spec.WhatIfs))
		}
		for i, sc := range rep.Scenarios {
			if sc.Name != r.spec.WhatIfs[i].Name {
				return nil, fmt.Errorf("scenario %d is %q, want %q", i, sc.Name, r.spec.WhatIfs[i].Name)
			}
			if err := checkCurve(sc.Confirmed.Median, r.spec.Days, exact); err != nil {
				return nil, fmt.Errorf("scenario %q: %v", sc.Name, err)
			}
		}
	}
	return &rep, nil
}

// elapsedLine matches the one field of a result that is a wall-clock
// reading; everything else in a body is a function of the spec.
var elapsedLine = regexp.MustCompile(`(?m)^\s*"elapsed_seconds":[^\n]*\n`)

// bodySum is the SHA-256 of a result body without its wall-clock field.
func bodySum(body []byte) [32]byte {
	return sha256.Sum256(elapsedLine.ReplaceAll(body, nil))
}

// send performs one op and returns the reply body, checked for shape.
func send(ctx context.Context, s *server, r request) ([]byte, *reply, error) {
	code, body, err := s.do(ctx, http.MethodPost, r.path(), r.body())
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	rep, err := checkReply(r, body)
	return body, rep, err
}

// send is send plus the workload's own check.
func (w *serveWorkload) send(ctx context.Context, s *server, r request) ([]byte, *reply, error) {
	body, rep, err := send(ctx, s, r)
	if err == nil && w.check != nil {
		err = w.check(r, body)
	}
	return body, rep, err
}

// setup starts the server, prepares it and runs the warm-up ops.
func (w *serveWorkload) setup(ctx context.Context, e *env) (*server, error) {
	s, err := startServer(ctx, e.bin, e.nproc, w.flags...)
	if err != nil {
		return nil, err
	}
	err = func() error {
		if w.prepare != nil {
			if err := w.prepare(ctx, s); err != nil {
				return err
			}
		}
		warm := closedLoop(ctx, e.nproc, w.stride, w.warmup, time.Time{}, func(ctx context.Context, i int) error {
			_, _, err := w.send(ctx, s, w.request(i))
			return err
		}, nil)
		if warm.failed > 0 {
			return fmt.Errorf("%d of %d warm-up ops failed: %v", warm.failed, warm.attempted, warm.errs)
		}
		return ctx.Err()
	}()
	if err != nil {
		stopErr := s.stop()
		return nil, fmt.Errorf("set-up: %w (stop: %v)\n--- episerve stderr ---\n%s", err, stopErr, s.stderr.String())
	}
	return s, nil
}

// e2e is the end-to-end run: repeated set-up, then a closed loop of
// e.nproc clients for e.seconds, then the repeat checks.
func (w *serveWorkload) e2e(ctx context.Context, e *env) (*measured, error) {
	s, setupS, err := repeatSetup(
		func() (*server, error) { return w.setup(ctx, e) },
		func(s *server) error { return s.stop() })
	if err != nil {
		return nil, err
	}
	defer s.stop() // a second stop is a no-op; this one covers early returns

	sums := make([][32]byte, w.digestOps)
	var cpuErr error
	cpu := func() time.Duration {
		d, err := s.cpuTime()
		if err != nil {
			cpuErr = err
		}
		return d
	}
	stats := closedLoop(ctx, e.nproc, w.stride, w.maxOps, time.Now().Add(e.seconds), func(ctx context.Context, i int) error {
		body, _, err := w.send(ctx, s, w.request(w.warmup+i))
		if err == nil && i < len(sums) {
			sums[i] = bodySum(body)
		}
		return err
	}, cpu)
	if cpuErr != nil {
		return nil, cpuErr
	}
	m := &measured{setupS: setupS, attempted: stats.attempted, failed: stats.failed, rounds: stats.rounds,
		latency: stats.succeeded(), tailQ: w.tailQ, errs: stats.errs}

	// A repeated request must give the reply it gave the first time, be it
	// from the cache or from a fresh, deterministic run.
	for i := 0; i < w.recheck && i < stats.attempted && i < len(sums); i++ {
		m.attempted++
		body, _, err := w.send(ctx, s, w.request(w.warmup+i))
		if err == nil && bodySum(body) != sums[i] {
			err = fmt.Errorf("repeat of op %d differs from its first reply", i)
		}
		if err != nil {
			m.failed++
			m.errs = append(m.errs, fmt.Sprintf("recheck %d: %v", i, err))
		}
	}
	m.digestOps = min(len(sums), stats.attempted)
	h := sha256.New()
	for _, sum := range sums[:m.digestOps] {
		h.Write(sum[:])
	}
	m.digest = hex.EncodeToString(h.Sum(nil))

	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("%w\n--- episerve stderr ---\n%s", err, s.stderr.String())
	}
	m.rssMB = s.peakRSSMB()
	return m, ctx.Err()
}
