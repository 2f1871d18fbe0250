package scenario

import (
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// Batching folds near-identical what-if specs — same normalized spec
// modulo the what-if stack — into one ensemble execution. Soundness rests
// on the PR 6 equivalence gate: each scenario branches from the shared
// as-is prefix and is bit-identical to a from-scratch run, so the slice of
// an ensemble result belonging to one member equals what that member's
// solo run would have produced. Only legacy-path specs (no fidelity
// routing) batch: surrogate routing decisions could differ between a
// member and the merged spec.

// batchable reports whether a normalized spec may join an ensemble batch.
func batchable(s Spec) bool {
	return s.Workflow == WorkflowWhatIf && s.Fidelity == "" && len(s.WhatIfs) > 0
}

// batchKey addresses the spec's batch family: the normalized spec with the
// what-if stack removed, hashed under a domain-separated fingerprint so a
// family key can never collide with a job hash.
func (s *Service) batchKey(spec Spec) (string, error) {
	spec.WhatIfs = nil
	return spec.Hash(s.fingerprint + "|batch")
}

// pendingBatch accumulates members of one batch family during the window.
// All fields are guarded by Service.mu.
type pendingBatch struct {
	key     string
	members []*Job
	whatifs []WhatIfSpec // current union, by member arrival
	timer   *time.Timer
	flushed bool
}

// mergeWhatIfs unions add into base by name. It fails when a name appears
// with a different definition (those members must run solo) or the union
// would exceed the spec bound.
func mergeWhatIfs(base, add []WhatIfSpec) ([]WhatIfSpec, bool) {
	byName := map[string]WhatIfSpec{}
	out := append([]WhatIfSpec(nil), base...)
	for _, w := range base {
		byName[w.Name] = w
	}
	for _, w := range add {
		if have, ok := byName[w.Name]; ok {
			if have != w {
				return nil, false
			}
			continue
		}
		byName[w.Name] = w
		out = append(out, w)
	}
	if len(out) > MaxWhatIfs {
		return nil, false
	}
	return out, true
}

// enrollLocked places a fresh job into its batch family (key, from batchKey),
// arming the flush timer on the family's first member. A job whose what-ifs
// cannot merge with the pending batch (name conflict or overflow) flushes
// that batch early and starts the next one. Caller holds s.mu.
func (s *Service) enrollLocked(j *Job, key string, d *deferred) {
	d.add(func() {
		obs.Event(j.tctx, "batch.enroll",
			obs.String("family", key), obs.Int("whatifs", int64(len(j.Spec.WhatIfs))))
	})
	b := s.batches[key]
	if b != nil {
		if merged, ok := mergeWhatIfs(b.whatifs, j.Spec.WhatIfs); ok {
			b.members = append(b.members, j)
			b.whatifs = merged
			j.batch = b
			return
		}
		s.flushLocked(b, d)
	}
	b = &pendingBatch{key: key, members: []*Job{j},
		whatifs: append([]WhatIfSpec(nil), j.Spec.WhatIfs...)}
	b.timer = time.AfterFunc(s.batchWindow, func() {
		var d deferred
		s.mu.Lock()
		s.flushLocked(b, &d)
		s.mu.Unlock()
		d.run()
	})
	s.batches[key] = b
	j.batch = b
}

// remove drops a member before flush (cancelled or abandoned while
// pending). Caller holds Service.mu.
func (b *pendingBatch) remove(j *Job) {
	if i := slices.Index(b.members, j); i >= 0 {
		b.members = slices.Delete(b.members, i, i+1)
	}
}

// scheduleLocked places a job whose run was not scheduled at Submit — a
// batch leaving its window — and books it like a fresh submission. With
// every pool down the job settles as ErrDraining. Caller holds s.mu.
func (s *Service) scheduleLocked(j *Job, d *deferred) {
	p := s.dispatchLocked(j)
	if p == nil {
		s.finishLocked(j, nil, ErrDraining)
		return
	}
	s.submitted.Inc()
	s.store.RecordMiss()
	d.add(func() {
		obs.Event(j.tctx, "replica.dispatch", obs.Int("replica", int64(p.id)), obs.String("hash", j.Hash))
	})
}

// flushLocked closes the window and schedules the batch: one member runs
// solo; several members link to one ensemble job running the merged spec,
// whose settlement slices the result back to every member (finishLocked).
// The ensemble is a job like any other — it may already be in the
// single-flight table, and may be one of the members. Caller holds s.mu.
func (s *Service) flushLocked(b *pendingBatch, d *deferred) {
	if b.flushed {
		return
	}
	b.flushed = true
	b.timer.Stop()
	if s.batches[b.key] == b {
		delete(s.batches, b.key)
	}
	members := b.members
	b.members = nil
	for _, m := range members {
		m.batch = nil
	}
	if len(members) == 0 {
		return
	}
	if len(members) == 1 {
		s.scheduleLocked(members[0], d)
		return
	}

	espec := members[0].Spec
	espec.WhatIfs = nil
	for _, m := range members {
		// enrollLocked guarantees mergeability.
		espec.WhatIfs, _ = mergeWhatIfs(espec.WhatIfs, m.Spec.WhatIfs)
	}
	// Order by name so the ensemble spec is canonical regardless of member
	// arrival order.
	slices.SortFunc(espec.WhatIfs, func(a, b WhatIfSpec) int { return strings.Compare(a.Name, b.Name) })
	espec, err := espec.Normalize()
	var ehash string
	if err == nil {
		ehash, err = espec.Hash(s.fingerprint)
	}
	if err != nil {
		for _, m := range members {
			s.finishLocked(m, nil, err)
		}
		return
	}
	ens, scheduled := s.inflight[ehash]
	if !scheduled {
		// The ensemble execution reports its spans into the first member's
		// request trace; the other members see their membership through
		// batch.member/batch.slice events carrying the ensemble's hash.
		ens = &Job{Hash: ehash, Spec: espec, svc: s, pri: PriorityInteractive,
			done: make(chan struct{}), tctx: members[0].tctx}
		s.inflight[ehash] = ens
		s.registry[ehash] = ens
	}
	for _, m := range members {
		d.add(func() {
			obs.Event(m.tctx, "batch.member", obs.String("batch", ehash),
				obs.Int("members", int64(len(members))), obs.String("hash", m.Hash))
		})
		if m == ens {
			// The merged spec coincides with this member's own (its what-ifs
			// already cover the union): it IS the ensemble, still unscheduled.
			scheduled = false
			continue
		}
		m.mu.Lock()
		m.ensemble = ens
		m.mu.Unlock()
		ens.interest++
		ens.members = append(ens.members, m)
	}
	s.batchExecs.Inc()
	s.batchMembs.Add(int64(len(members)))
	if !scheduled {
		s.scheduleLocked(ens, d)
	}
}

// sliceResult projects an ensemble result onto one member: the member's
// what-if scenarios in the member's declared order, under the member's own
// content address.
func sliceResult(ens *Result, hash string, spec Spec) *Result {
	out := *ens
	out.Hash = hash
	out.Spec = spec
	byName := map[string]ScenarioResult{}
	for _, sc := range ens.Scenarios {
		byName[sc.Name] = sc
	}
	out.Scenarios = nil
	for _, w := range spec.WhatIfs {
		if sc, ok := byName[w.Name]; ok {
			out.Scenarios = append(out.Scenarios, sc)
		}
	}
	return &out
}
