package epihiper

import (
	"repro/internal/disease"
	"repro/internal/stats"
	"repro/internal/synthpop"
)

// This file implements the paper's full intervention form (Appendix D):
// an intervention comprises a trigger and an action ensemble; the ensemble
// operates on a target set of nodes, with operations performed (i) once per
// intervention, (ii) for each element of the target set, and (iii) for a
// sampled subset as well as for the remaining non-sampled elements —
// sampling may be nested, and operations may be delayed to a later point in
// the simulation. Node traits (Table V's nodeTrait[traitName]) are
// user-defined attributes that triggers and targets may read and actions
// may write; they do not influence transmission or progression directly.

// NodeOp mutates one person.
type NodeOp func(s *Sim, pid int32)

// TargetFunc selects the persons an ensemble operates on.
type TargetFunc func(s *Sim, day int) []int32

// ActionEnsemble is the paper's action-ensemble structure.
type ActionEnsemble struct {
	// Target selects the target set. Nil targets every person.
	Target TargetFunc
	// Once runs one time when the ensemble fires (typically to update
	// user-defined variables).
	Once func(s *Sim, day int)
	// ForEach runs for every element of the target set.
	ForEach NodeOp
	// SampleFrac, when positive, splits the target set: Sampled runs on
	// the sampled subset, Remainder on the rest.
	SampleFrac float64
	Sampled    NodeOp
	Remainder  NodeOp
	// Nested, when non-nil, is applied to the sampled subset as its own
	// ensemble target ("sampling may be nested").
	Nested *ActionEnsemble
	// DelayDays postpones the per-element operations by this many days.
	DelayDays int
}

// Apply executes the ensemble against the current system state.
func (a *ActionEnsemble) Apply(s *Sim, day int, r *stats.RNG) {
	if a.Once != nil {
		a.Once(s, day)
	}
	var target []int32
	if a.Target != nil {
		target = a.Target(s, day)
	} else {
		target = make([]int32, s.net.NumNodes())
		for i := range target {
			target[i] = int32(i)
		}
	}
	run := func(op NodeOp, pids []int32) {
		if op == nil || len(pids) == 0 {
			return
		}
		if a.DelayDays > 0 {
			cp := append([]int32(nil), pids...)
			s.Schedule(day+a.DelayDays, func(sim *Sim) {
				for _, pid := range cp {
					op(sim, pid)
				}
			})
			return
		}
		for _, pid := range pids {
			op(s, pid)
		}
	}
	run(a.ForEach, target)
	if a.SampleFrac > 0 {
		var sampled, rest []int32
		for _, pid := range target {
			if r.Bool(a.SampleFrac) {
				sampled = append(sampled, pid)
			} else {
				rest = append(rest, pid)
			}
		}
		run(a.Sampled, sampled)
		run(a.Remainder, rest)
		if a.Nested != nil {
			nested := *a.Nested
			captured := sampled
			nested.Target = func(*Sim, int) []int32 { return captured }
			nested.Apply(s, day, r)
		}
	}
}

// EnsembleIntervention pairs a trigger with an action ensemble, completing
// the Appendix D form.
type EnsembleIntervention struct {
	Label    string
	Trigger  func(s *Sim, day int) bool
	Ensemble ActionEnsemble
}

// Name implements Intervention.
func (e *EnsembleIntervention) Name() string { return e.Label }

// Step implements Intervention.
func (e *EnsembleIntervention) Step(s *Sim, day int, r *stats.RNG) {
	if e.Trigger == nil || e.Trigger(s, day) {
		e.Ensemble.Apply(s, day, r)
	}
}

// ---------------------------------------------------------------------------
// Table V node traits

// NodeTrait returns the value of a user-defined node trait (0 when unset).
func (s *Sim) NodeTrait(name string, pid int32) float64 {
	if s.nodeTraits == nil {
		return 0
	}
	t := s.nodeTraits[name]
	if t == nil {
		return 0
	}
	return t[pid]
}

// SetNodeTrait assigns a user-defined node trait value.
func (s *Sim) SetNodeTrait(name string, pid int32, v float64) {
	if s.nodeTraits == nil {
		s.nodeTraits = map[string][]float64{}
	}
	t := s.nodeTraits[name]
	if t == nil {
		t = make([]float64, s.net.NumNodes())
		s.nodeTraits[name] = t
		s.AddDynamicMemory(int64(s.net.NumNodes()) * 8)
	}
	t[pid] = v
}

// ---------------------------------------------------------------------------
// Common target-set constructors

// TargetInState selects persons currently in the given health state.
func TargetInState(st disease.State) TargetFunc {
	return func(s *Sim, _ int) []int32 {
		var out []int32
		for pid := int32(0); int(pid) < s.net.NumNodes(); pid++ {
			if s.health[pid] == st {
				out = append(out, pid)
			}
		}
		return out
	}
}

// TargetAgeBand selects persons in an age band.
func TargetAgeBand(ag disease.AgeGroup) TargetFunc {
	return func(s *Sim, _ int) []int32 {
		var out []int32
		for pid, b := range s.ageBand {
			if b == ag {
				out = append(out, int32(pid))
			}
		}
		return out
	}
}

// TargetCounty selects persons living in a county.
func TargetCounty(fips int32) TargetFunc {
	return func(s *Sim, _ int) []int32 {
		var out []int32
		for i := range s.net.Persons {
			if s.net.Persons[i].CountyFIPS == fips {
				out = append(out, s.net.Persons[i].ID)
			}
		}
		return out
	}
}

// TargetTraitAbove selects persons whose named trait exceeds a threshold.
func TargetTraitAbove(name string, threshold float64) TargetFunc {
	return func(s *Sim, _ int) []int32 {
		var out []int32
		for pid := int32(0); int(pid) < s.net.NumNodes(); pid++ {
			if s.NodeTrait(name, pid) > threshold {
				out = append(out, pid)
			}
		}
		return out
	}
}

// ---------------------------------------------------------------------------
// Common node operations

// OpVaccinate zeroes susceptibility — node deletion in the Appendix A
// sense.
func OpVaccinate() NodeOp {
	return func(s *Sim, pid int32) { s.SetSusceptibility(pid, 0) }
}

// OpScaleInfectivity multiplies the person's infectivity (mask-wearing,
// antivirals).
func OpScaleInfectivity(factor float64) NodeOp {
	return func(s *Sim, pid int32) {
		s.SetInfectivity(pid, float64(s.infectivityScale[pid])*factor)
	}
}

// OpSetTrait writes a trait value.
func OpSetTrait(name string, v float64) NodeOp {
	return func(s *Sim, pid int32) { s.SetNodeTrait(name, pid, v) }
}

// OpDisableContext turns one context off for the person.
func OpDisableContext(ctx synthpop.Context) NodeOp {
	return func(s *Sim, pid int32) { s.SetContextEnabled(pid, ctx, false) }
}
