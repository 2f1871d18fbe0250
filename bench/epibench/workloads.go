package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"
)

// workload is one entry of BENCHMARK.json's workloads: an end-to-end run
// with tracing off, and a traced run that fills the per-layer ledger.
type workload struct {
	name  string
	e2e   func(ctx context.Context, e *env) (*measured, error)
	trace func(ctx context.Context, e *env, l ledger) (*measured, error)
}

func workloads(seed uint64) []workload {
	cold, hot, whatIf := serveCold(seed), serveHot(seed), whatIfBranch(seed)
	return []workload{
		{"serve-cold", cold.e2e, cold.traceCold},
		{"serve-hot", hot.e2e, hot.trace},
		{"whatif-branch", whatIf.e2e, whatIf.traceWhatIf},
		{"kernel-scale", kernelScaleE2E, kernelScaleTrace},
		{"night-batch", nightBatchE2E, nightBatchTrace},
	}
}

// pipelineSeed is episerve's -seed. It is fixed: the program's own seed is
// part of the deployment, and the benchmark's --seed shapes only the
// requests the program receives.
const pipelineSeed = "2020"

// Deployment sizes the traced runs mirror in-process.
const (
	coldScale    = 250
	whatIfScale  = 1000
	whatIfShards = 2
)

// serveCold: unique exact-ABM predictions; the workflow engine and the
// simulator kernel do nearly all the work, and every cache is bypassed.
func serveCold(seed uint64) *serveWorkload {
	return &serveWorkload{
		flags: []string{"-replicas", "1", "-workers", "2", "-shards", "1", "-scale", strconv.Itoa(coldScale),
			"-queue", "64", "-recorder", "0", "-seed", pipelineSeed},
		stride: 1, warmup: 40, maxOps: 1 << 16, digestOps: 200, tailQ: 0.95, recheck: 4,
		request: func(i int) request { return coldRequest(seed, i) },
	}
}

// hotWorkload is serve-hot's serveWorkload plus the state its set-up
// leaves behind.
type hotWorkload struct {
	serveWorkload
	plan *hotPlan
	// first holds each catalogue spec's first reply; a repeat must return
	// the same bytes.
	first [][]byte
	// trainS is how long the last set-up spent training the emulator.
	trainS float64
}

// serveHot: a trained fidelity family and a catalogue of repeated specs;
// HTTP, normalization, admission, the result cache, the fidelity router and
// encoding do the work, the kernel almost none.
func serveHot(seed uint64) *hotWorkload {
	h := &hotWorkload{plan: newHotPlan(seed)}
	h.serveWorkload = serveWorkload{
		flags: []string{"-replicas", "1", "-workers", "2", "-shards", "2", "-scale", "2000", "-cache", "1024",
			"-recorder", "0", "-seed", pipelineSeed},
		stride: 1, warmup: 200, maxOps: 1 << 20, digestOps: 2000, tailQ: 0.99,
		prepare: h.prepare,
		request: h.plan.request,
		check:   h.checkRepeat,
	}
	return h
}

// prepare trains the family with the forced-ABM design (under a loose auto
// budget the corrected metapop answers after three escalations, so auto
// traffic alone never fits the emulator), waits for the fit, and fills the
// catalogue.
func (h *hotWorkload) prepare(ctx context.Context, s *server) error {
	t0 := time.Now()
	_, rep, err := h.send(ctx, s, h.plan.train)
	if err == nil && rep.Tier != "abm" {
		err = fmt.Errorf("design answered by tier %q", rep.Tier)
	}
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	if err := s.waitReady(ctx, true); err != nil {
		return fmt.Errorf("emulator never fitted: %w", err)
	}
	h.trainS = time.Since(t0).Seconds()
	h.first = make([][]byte, len(h.plan.catalogue))
	for j, r := range h.plan.catalogue {
		body, _, err := h.send(ctx, s, r)
		if err != nil {
			return fmt.Errorf("catalogue fill %d: %w", j, err)
		}
		h.first[j] = body
	}
	return nil
}

// checkRepeat holds a catalogue repeat to the bytes of its first reply.
func (h *hotWorkload) checkRepeat(r request, body []byte) error {
	if r.repeat == 0 || h.first[r.repeat-1] == nil {
		return nil
	}
	if !bytes.Equal(body, h.first[r.repeat-1]) {
		return fmt.Errorf("catalogue spec %d: reply differs from its first reply", r.repeat-1)
	}
	return nil
}

// whatIfBranch: pairs of what-if requests over one configuration; the first
// writes the prefix snapshots, the second restores and branches from them,
// and the working set overruns the snapshot store so eviction runs.
func whatIfBranch(seed uint64) *serveWorkload {
	return &serveWorkload{
		flags: []string{"-replicas", "1", "-workers", "2", "-shards", strconv.Itoa(whatIfShards),
			"-scale", strconv.Itoa(whatIfScale), "-snap-cache", "32",
			"-recorder", "0", "-seed", pipelineSeed},
		stride: 2, warmup: 8, maxOps: 1 << 16, digestOps: 100, tailQ: 0.95, recheck: 4,
		request: func(i int) request { return whatIfRequest(seed, i) },
	}
}
