package main

import (
	"encoding/json"

	"repro/internal/core"
)

// Every input is a pure function of (seed, op index), so the op stream is
// the same whichever client draws an op and however far a timed run gets.

// mix is splitmix64 over (seed, stream, index).
func mix(seed uint64, stream, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps (seed, stream, index) to [0, 1).
func unit(seed uint64, stream, i int) float64 {
	return float64(mix(seed, stream, i)>>11) / (1 << 53)
}

// Streams keep the draws of different inputs apart; the ones that draw a
// parameter vector use four consecutive streams, one per parameter.
const (
	streamColdTAU    = 1
	streamHotClass   = 2
	streamHotPick    = 3
	streamWhatIfTAU  = 4
	streamKernel     = 5
	streamNight      = 6
	streamNightFault = 7
	streamFloor      = 8
	streamHotFresh   = 20
	streamHotCatalog = 30
)

// paramSpec, whatIfSpec and spec are the benchmark's own spelling of the
// request bodies episerve accepts; the operator surface is JSON over HTTP,
// not the program's Go types.
type paramSpec struct {
	TAU           float64 `json:"tau"`
	SYMP          float64 `json:"symp"`
	SHCompliance  float64 `json:"sh_compliance"`
	VHICompliance float64 `json:"vhi_compliance"`
}

type whatIfSpec struct {
	Name            string  `json:"name"`
	PivotDay        int     `json:"pivot_day,omitempty"`
	SHEndShift      int     `json:"sh_end_shift,omitempty"`
	ComplianceScale float64 `json:"compliance_scale,omitempty"`
	AddTesting      float64 `json:"add_testing,omitempty"`
}

type spec struct {
	Workflow       string       `json:"workflow"`
	State          string       `json:"state"`
	Days           int          `json:"days"`
	Replicates     int          `json:"replicates"`
	SHStart        int          `json:"sh_start,omitempty"`
	Configs        []paramSpec  `json:"configs"`
	WhatIfs        []whatIfSpec `json:"whatifs,omitempty"`
	Fidelity       string       `json:"fidelity,omitempty"`
	MaxUncertainty float64      `json:"max_uncertainty,omitempty"`
}

// request is one op against episerve: POST /scenarios?wait=1.
type request struct {
	// class tags the op for the per-class latency report of a traced run.
	class    string
	priority string
	// repeat is the catalogue slot plus one of a spec sent many times, whose
	// replies must all be the same bytes; 0 for a spec sent once.
	repeat int
	spec   spec
}

func (r request) path() string {
	p := "/scenarios?wait=1"
	if r.priority != "" {
		p += "&priority=" + r.priority
	}
	return p
}

func (r request) body() []byte {
	b, err := json.Marshal(r.spec)
	if err != nil {
		panic(err) // spec holds only plain numbers and strings
	}
	return b
}

// predictionConfig is the core configuration episerve runs for a spec, for
// replaying the same op in-process during a traced run. It spells out the
// serving tier's defaults (stay-at-home from day 15 to the horizon).
func (s spec) predictionConfig() core.PredictionConfig {
	cfg := core.PredictionConfig{State: s.State, Replicates: s.Replicates, Days: s.Days,
		SHStart: s.SHStart, SHEnd: s.Days}
	if cfg.SHStart <= 0 {
		cfg.SHStart = 15
	}
	for _, c := range s.Configs {
		cfg.Configs = append(cfg.Configs, core.Params{TAU: c.TAU, SYMP: c.SYMP,
			SHCompliance: c.SHCompliance, VHICompliance: c.VHICompliance})
	}
	return cfg
}

func (s spec) whatIfs() []core.WhatIf {
	var out []core.WhatIf
	for _, w := range s.WhatIfs {
		out = append(out, core.WhatIf{Name: w.Name, PivotDay: w.PivotDay, SHEndShift: w.SHEndShift,
			ComplianceScale: w.ComplianceScale, AddTesting: w.AddTesting})
	}
	return out
}

// --- serve-cold ---------------------------------------------------------

// coldRequest is a unique exact-ABM prediction: the transmissibility is
// wiggled per op, so no two ops share a content address and the result
// cache, the fidelity ladder and the snapshot store are all bypassed.
func coldRequest(seed uint64, i int) request {
	return request{class: "abm", spec: spec{
		Workflow: "prediction", State: "VA", Days: 90, Replicates: 2,
		Configs: []paramSpec{{TAU: 0.18 + 0.04*unit(seed, streamColdTAU, i),
			SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}},
	}}
}

// --- serve-hot ----------------------------------------------------------

const (
	hotDesignPoints = 12
	hotCatalogue    = 32
	hotBudget       = 3.0
)

// hotBox is the parameter box the training design spans.
var (
	hotBoxLo = [4]float64{0.16, 0.55, 0.30, 0.30}
	hotBoxHi = [4]float64{0.24, 0.75, 0.70, 0.70}
)

func paramsAt(u [4]float64, lo, hi [4]float64) paramSpec {
	at := func(k int) float64 { return lo[k] + u[k]*(hi[k]-lo[k]) }
	return paramSpec{TAU: at(0), SYMP: at(1), SHCompliance: at(2), VHICompliance: at(3)}
}

func hotSpec(fidelity string, p ...paramSpec) spec {
	s := spec{Workflow: "prediction", State: "VA", Days: 60, Replicates: 2,
		Configs: p, Fidelity: fidelity}
	if fidelity == "auto" {
		s.MaxUncertainty = hotBudget
	}
	return s
}

// hotPlan is the seed's serve-hot input: the training request and the
// catalogue of repeated specs.
type hotPlan struct {
	seed uint64
	// train carries the whole design as the configurations of one forced-ABM
	// request, so the family is fitted once, on all of them: separate
	// requests race the service's background refits, and which emulator
	// version answers then differs run to run.
	train     request
	catalogue []request
}

func newHotPlan(seed uint64) *hotPlan {
	p := &hotPlan{seed: seed}
	// A Latin design: in every dimension each of the twelve slots is used
	// once, at its middle (the strides are coprime with twelve), so the
	// points span the box. It does not depend on the seed: training is part
	// of the deployment, and whether the emulator it yields meets the budget
	// decides which tier answers, so a seeded design would make every seed a
	// different workload.
	strides := [4]int{1, 5, 7, 11}
	var design []paramSpec
	for j := 0; j < hotDesignPoints; j++ {
		var u [4]float64
		for k := range u {
			slot := (j*strides[k] + 3*k) % hotDesignPoints
			u[k] = (float64(slot) + 0.5) / hotDesignPoints
		}
		design = append(design, paramsAt(u, hotBoxLo, hotBoxHi))
	}
	p.train = request{class: "train", spec: hotSpec("abm", design...)}
	for j := 0; j < hotCatalogue; j++ {
		p.catalogue = append(p.catalogue, request{class: "hit", repeat: j + 1,
			spec: hotSpec("auto", p.inBox(streamHotCatalog, j))})
	}
	return p
}

// inBox draws a configuration inside the region the design trained — the
// outermost design points sit half a slot inside the box — so the fidelity
// router may answer it from a surrogate.
func (p *hotPlan) inBox(stream, i int) paramSpec {
	var u [4]float64
	for k := range u {
		u[k] = 0.1 + 0.8*unit(p.seed, stream+k, i)
	}
	return paramsAt(u, hotBoxLo, hotBoxHi)
}

var priorities = [3]string{"interactive", "normal", "batch"}

// request draws op i of the mix: 60% catalogue repeats, 28% fresh auto, 10%
// fresh metapop, 2% unique small exact-ABM misses.
func (p *hotPlan) request(i int) request {
	var r request
	switch c := unit(p.seed, streamHotClass, i); {
	case c < 0.60:
		r = p.catalogue[int(mix(p.seed, streamHotPick, i)>>8)%hotCatalogue]
	case c < 0.88:
		r = request{class: "auto", spec: hotSpec("auto", p.inBox(streamHotFresh, i))}
	case c < 0.98:
		r = request{class: "metapop", spec: hotSpec("metapop", p.inBox(streamHotFresh, i))}
	default:
		s := hotSpec("", p.inBox(streamHotFresh, i))
		s.Days, s.Replicates = 30, 1
		r = request{class: "abm", spec: s}
	}
	r.priority = priorities[i%3]
	return r
}

// --- whatif-branch ------------------------------------------------------

const whatIfPivot = 60

// whatIfStacks are the two scenario stacks a configuration is asked about,
// one request each; both pivot on the same day, so they share a prefix.
var whatIfStacks = [2][]whatIfSpec{
	{
		{Name: "lift-2w-early", PivotDay: whatIfPivot, SHEndShift: -14},
		{Name: "lift-4w-early", PivotDay: whatIfPivot, SHEndShift: -28},
		{Name: "compliance-up", PivotDay: whatIfPivot, ComplianceScale: 1.25},
		{Name: "testing", PivotDay: whatIfPivot, AddTesting: 0.3},
	},
	{
		{Name: "lift-1w-early", PivotDay: whatIfPivot, SHEndShift: -7},
		{Name: "lift-3w-early", PivotDay: whatIfPivot, SHEndShift: -21},
		{Name: "compliance-down", PivotDay: whatIfPivot, ComplianceScale: 0.75},
		{Name: "testing-light", PivotDay: whatIfPivot, AddTesting: 0.15},
	},
}

// whatIfRequest is op i: ops 2k and 2k+1 ask about the same configuration
// with different stacks, so 2k writes the prefix snapshots and 2k+1 reads
// them.
func whatIfRequest(seed uint64, i int) request {
	class := "write"
	if i%2 == 1 {
		class = "read"
	}
	return request{class: class, spec: spec{
		Workflow: "whatif", State: "VA", Days: 90, Replicates: 2, SHStart: 20,
		Configs: []paramSpec{{TAU: 0.18 + 0.04*unit(seed, streamWhatIfTAU, i/2),
			SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}},
		WhatIfs: whatIfStacks[i%2],
	}}
}
