// Package scenario is the serving layer over the three production
// workflows: policy-makers submit what-if scenario requests over HTTP, the
// service canonicalizes and content-addresses each spec, runs it through a
// bounded job queue with a fixed worker pool over core.Pipeline, and serves
// results from a content-addressed LRU cache with single-flight
// deduplication. The seeded RNG in the pipeline makes every run
// deterministic, so identical specs share one execution and cached results
// are sound.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/synthpop"
)

// Workflow names accepted in a Spec.
const (
	WorkflowPrediction = "prediction"
	WorkflowWhatIf     = "whatif"
	WorkflowNight      = "night"
)

// Admission bounds: a spec outside these limits is rejected at submit time
// rather than admitted to the queue (the service's first line of
// backpressure — oversized work never competes for workers).
const (
	MaxDays       = 366
	MaxReplicates = 64
	MaxConfigs    = 32
	MaxWhatIfs    = 8
	MaxNightCells = 1000
)

// ParamSpec is one calibrated model configuration on the wire (the four VA
// case-study parameters).
type ParamSpec struct {
	TAU           float64 `json:"tau"`
	SYMP          float64 `json:"symp"`
	SHCompliance  float64 `json:"sh_compliance"`
	VHICompliance float64 `json:"vhi_compliance"`
}

func (ps ParamSpec) toCore() core.Params {
	return core.Params{TAU: ps.TAU, SYMP: ps.SYMP,
		SHCompliance: ps.SHCompliance, VHICompliance: ps.VHICompliance}
}

// WhatIfSpec is a future scenario layered on the calibrated configurations
// (core.WhatIf on the wire).
type WhatIfSpec struct {
	Name string `json:"name"`
	// PivotDay is the day the scenario diverges from the shared as-is
	// baseline; 0 takes the workflow default (SHStart). Scenarios sharing
	// a pivot share one simulated prefix per (config, replicate).
	PivotDay        int     `json:"pivot_day,omitempty"`
	SHEndShift      int     `json:"sh_end_shift,omitempty"`
	ComplianceScale float64 `json:"compliance_scale,omitempty"`
	AddTesting      float64 `json:"add_testing,omitempty"`
	AddTracing      int     `json:"add_tracing,omitempty"`
	TraceDetectProb float64 `json:"trace_detect_prob,omitempty"`
}

func (ws WhatIfSpec) toCore() core.WhatIf {
	return core.WhatIf{
		Name: ws.Name, PivotDay: ws.PivotDay,
		SHEndShift: ws.SHEndShift, ComplianceScale: ws.ComplianceScale,
		AddTesting: ws.AddTesting, AddTracing: ws.AddTracing, TraceDetectProb: ws.TraceDetectProb,
	}
}

// NightSpec parameterizes a simulated night of one Table I workflow family.
type NightSpec struct {
	// Family selects the Table I row: economic | prediction | calibration.
	Family string `json:"family"`
	// Cells / Replicates override the row's published scale when positive.
	Cells      int `json:"cells,omitempty"`
	Replicates int `json:"replicates,omitempty"`
	// Heuristic is FFDT-DC (default) or NFDT-DC.
	Heuristic string `json:"heuristic,omitempty"`
	// Seed drives the night's task-time noise.
	Seed uint64 `json:"seed,omitempty"`
}

// workflowSpec resolves the night to a core.WorkflowSpec. Family must
// already be normalized.
func (n NightSpec) workflowSpec() core.WorkflowSpec {
	base, _ := tableIRow(n.Family)
	base.Cells = n.Cells
	base.Replicates = n.Replicates
	return base
}

// tableIRow looks a night family up among the Table I rows by its
// lowercased kind: economic, prediction or calibration.
func tableIRow(family string) (core.WorkflowSpec, bool) {
	for _, row := range core.TableI() {
		if strings.ToLower(row.Kind.String()) == family {
			return row, true
		}
	}
	return core.WorkflowSpec{}, false
}

// Spec is a scenario request. The zero values of most fields are filled
// with the workflow's production defaults during normalization, so two
// submissions that mean the same run hash to the same content address
// whether or not the client spelled the defaults out.
type Spec struct {
	// Workflow is prediction | whatif | night.
	Workflow string `json:"workflow"`
	// State is the region postal code (prediction and whatif).
	State string `json:"state,omitempty"`
	// Days is the forecast horizon.
	Days int `json:"days,omitempty"`
	// Replicates per configuration.
	Replicates int `json:"replicates,omitempty"`
	// SHStart / SHEnd time the mitigation schedule.
	SHStart int `json:"sh_start,omitempty"`
	SHEnd   int `json:"sh_end,omitempty"`
	// Configs are the calibrated model configurations; empty takes the
	// CDC-best-guess spread of cmd/predict.
	Configs []ParamSpec `json:"configs,omitempty"`
	// WhatIfs are the interventions to layer (whatif workflow); empty takes
	// core.StandardWhatIfs.
	WhatIfs []WhatIfSpec `json:"whatifs,omitempty"`
	// Night parameterizes the night workflow.
	Night *NightSpec `json:"night,omitempty"`

	// Fidelity selects the serving tier: "" (legacy exact ABM path, the
	// default), auto, emulator, metapop, or abm. New fields stay at the end
	// of the struct so legacy specs keep their canonical JSON byte-for-byte
	// (and therefore their content hashes).
	Fidelity string `json:"fidelity,omitempty"`
	// MaxUncertainty is the fidelity=auto escalation budget: the maximum
	// acceptable 95% relative error of a surrogate answer. Defaults to 0.1
	// under fidelity=auto; meaningless (and cleared) otherwise.
	MaxUncertainty float64 `json:"max_uncertainty,omitempty"`
	// Shards is the simulator shard count the client suggests. It is an
	// execution hint only — results are bit-identical at any shard count
	// (the engine's determinism contract) — so normalization validates and
	// then CLEARS it: a hint must never split the content-addressed result
	// cache between requests that denote the same computation. The
	// server's -shards flag governs the pipeline's actual shard count.
	Shards int `json:"shards,omitempty"`
}

// defaultConfigs is the spread cmd/predict uses when no posterior is given.
func defaultConfigs() []ParamSpec {
	return []ParamSpec{
		{TAU: 0.16, SYMP: 0.65, SHCompliance: 0.6, VHICompliance: 0.5},
		{TAU: 0.18, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5},
		{TAU: 0.20, SYMP: 0.60, SHCompliance: 0.4, VHICompliance: 0.4},
		{TAU: 0.22, SYMP: 0.70, SHCompliance: 0.3, VHICompliance: 0.6},
	}
}

// Normalize returns the canonical form of the spec — lowercased workflow,
// uppercased state, every defaultable zero field filled — or an error when
// the spec is invalid or exceeds the admission bounds. Hashing and
// execution both operate on the normalized spec.
func (s Spec) Normalize() (Spec, error) {
	if s.Shards < 0 || s.Shards > 256 {
		return s, fmt.Errorf("scenario: shards %d outside [0, 256]", s.Shards)
	}
	s.Shards = 0 // execution hint: never part of the spec's identity
	s.Workflow = strings.ToLower(strings.TrimSpace(s.Workflow))
	switch s.Workflow {
	case WorkflowPrediction, WorkflowWhatIf:
		return s.normalizeForecast()
	case WorkflowNight:
		return s.normalizeNight()
	case "":
		return s, fmt.Errorf("scenario: missing workflow (want %s | %s | %s)",
			WorkflowPrediction, WorkflowWhatIf, WorkflowNight)
	default:
		return s, fmt.Errorf("scenario: unknown workflow %q", s.Workflow)
	}
}

func (s Spec) normalizeForecast() (Spec, error) {
	s.Night = nil
	s.State = strings.ToUpper(strings.TrimSpace(s.State))
	if _, err := synthpop.StateByCode(s.State); err != nil {
		return s, fmt.Errorf("scenario: bad state %q: %w", s.State, err)
	}
	if s.Days <= 0 {
		s.Days = 120
	}
	if s.Days > MaxDays {
		return s, fmt.Errorf("scenario: days %d exceeds bound %d", s.Days, MaxDays)
	}
	if s.Replicates <= 0 {
		if s.Workflow == WorkflowWhatIf {
			s.Replicates = 5
		} else {
			s.Replicates = 15
		}
	}
	if s.Replicates > MaxReplicates {
		return s, fmt.Errorf("scenario: replicates %d exceeds bound %d", s.Replicates, MaxReplicates)
	}
	if s.SHStart <= 0 {
		s.SHStart = 15
	}
	if s.SHEnd <= 0 {
		s.SHEnd = s.Days
	}
	if len(s.Configs) == 0 {
		s.Configs = defaultConfigs()
	}
	if len(s.Configs) > MaxConfigs {
		return s, fmt.Errorf("scenario: %d configs exceed bound %d", len(s.Configs), MaxConfigs)
	}
	for i, c := range s.Configs {
		if c.TAU < 0 || c.SYMP < 0 || c.SYMP > 1 ||
			c.SHCompliance < 0 || c.SHCompliance > 1 ||
			c.VHICompliance < 0 || c.VHICompliance > 1 {
			return s, fmt.Errorf("scenario: config %d out of range: %+v", i, c)
		}
	}
	switch s.Workflow {
	case WorkflowWhatIf:
		if len(s.WhatIfs) == 0 {
			for _, w := range core.StandardWhatIfs() {
				s.WhatIfs = append(s.WhatIfs, WhatIfSpec{
					Name: w.Name, PivotDay: w.PivotDay,
					SHEndShift: w.SHEndShift, ComplianceScale: w.ComplianceScale,
					AddTesting: w.AddTesting, AddTracing: w.AddTracing, TraceDetectProb: w.TraceDetectProb,
				})
			}
		}
		if len(s.WhatIfs) > MaxWhatIfs {
			return s, fmt.Errorf("scenario: %d what-ifs exceed bound %d", len(s.WhatIfs), MaxWhatIfs)
		}
		seen := map[string]bool{}
		for i, w := range s.WhatIfs {
			if w.Name == "" {
				return s, fmt.Errorf("scenario: what-if %d has no name", i)
			}
			if seen[w.Name] {
				return s, fmt.Errorf("scenario: duplicate what-if name %q", w.Name)
			}
			seen[w.Name] = true
			if w.PivotDay < 0 || w.PivotDay > s.Days {
				return s, fmt.Errorf("scenario: what-if %q pivot day %d outside [0, %d]", w.Name, w.PivotDay, s.Days)
			}
		}
	default:
		s.WhatIfs = nil
	}
	return s.normalizeFidelity()
}

// normalizeFidelity canonicalizes the serving-tier fields: tier names are
// case-insensitive on the wire, the auto tier defaults its budget, and the
// budget is cleared wherever it cannot influence routing (so specs that
// mean the same run hash the same).
func (s Spec) normalizeFidelity() (Spec, error) {
	s.Fidelity = strings.ToLower(strings.TrimSpace(s.Fidelity))
	if math.IsNaN(s.MaxUncertainty) || math.IsInf(s.MaxUncertainty, 0) || s.MaxUncertainty < 0 {
		return s, fmt.Errorf("scenario: bad max_uncertainty %v", s.MaxUncertainty)
	}
	switch s.Fidelity {
	case "":
		s.MaxUncertainty = 0
	case string(fidelity.TierAuto):
		if s.MaxUncertainty == 0 {
			s.MaxUncertainty = fidelity.DefaultBudget
		}
	case string(fidelity.TierEmulator), string(fidelity.TierMetapop), string(fidelity.TierABM):
		s.MaxUncertainty = 0
	default:
		return s, fmt.Errorf("scenario: unknown fidelity %q (want auto | emulator | metapop | abm)", s.Fidelity)
	}
	return s, nil
}

func (s Spec) normalizeNight() (Spec, error) {
	s.State, s.Days, s.Replicates, s.SHStart, s.SHEnd = "", 0, 0, 0, 0
	s.Configs, s.WhatIfs = nil, nil
	s.Fidelity, s.MaxUncertainty = "", 0
	n := NightSpec{Family: "prediction", Heuristic: "FFDT-DC", Seed: 1}
	if s.Night != nil {
		n = *s.Night
	}
	n.Family = strings.ToLower(strings.TrimSpace(n.Family))
	if n.Family == "" {
		n.Family = "prediction"
	}
	row, ok := tableIRow(n.Family)
	if !ok {
		return s, fmt.Errorf("scenario: unknown night family %q", n.Family)
	}
	if n.Cells <= 0 {
		n.Cells = row.Cells
	}
	if n.Cells > MaxNightCells {
		return s, fmt.Errorf("scenario: night cells %d exceed bound %d", n.Cells, MaxNightCells)
	}
	if n.Replicates <= 0 {
		n.Replicates = row.Replicates
	}
	if n.Replicates > MaxReplicates {
		return s, fmt.Errorf("scenario: night replicates %d exceed bound %d", n.Replicates, MaxReplicates)
	}
	switch n.Heuristic {
	case "":
		n.Heuristic = "FFDT-DC"
	case "FFDT-DC", "NFDT-DC":
	default:
		return s, fmt.Errorf("scenario: unknown heuristic %q", n.Heuristic)
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	s.Night = &n
	return s, nil
}

// Canonical renders the normalized spec as canonical JSON (Go marshals
// struct fields in declaration order, so the encoding is deterministic).
// It must be called on a normalized spec.
func (s Spec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// Hash content-addresses the normalized spec under a pipeline fingerprint:
// SHA-256 over fingerprint + canonical JSON. Two requests hash equal iff
// they denote the same deterministic computation on the same pipeline.
func (s Spec) Hash(fingerprint string) (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}
