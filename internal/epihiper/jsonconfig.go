package epihiper

import (
	"encoding/json"
	"fmt"

	"repro/internal/disease"
	"repro/internal/synthpop"
)

// This file implements the JSON form of a simulation configuration — the
// "model configurations" the workflows generate as cells and ship to the
// remote cluster: disease parameters, initializations (seedings), the
// horizon, and the intervention stack. The contact network is referenced by
// region, not embedded (the paper keeps networks out of the JSON for size).

// JSONConfig is the serializable simulation configuration.
type JSONConfig struct {
	Region string `json:"region"`
	Days   int    `json:"days"`
	// Shards is the shard count of the shard-owned engine (Config.Parallelism).
	// Results are bit-identical at any value — this is an execution hint, not
	// part of the scenario's identity — so a file that still spells it
	// "parallelism" is read like any file with an unknown key: the key is
	// ignored and the run uses the caller's default.
	Shards             int                `json:"shards,omitempty"`
	PartitionTolerance float64            `json:"partitionTolerance,omitempty"`
	Seed               uint64             `json:"seed"`
	Model              *disease.Model     `json:"model,omitempty"`
	Seeds              []Seeding          `json:"seeds,omitempty"`
	SeedPersons        []int32            `json:"seedPersons,omitempty"`
	Interventions      []InterventionSpec `json:"interventions,omitempty"`
}

// InterventionSpec is the typed JSON form of one intervention.
type InterventionSpec struct {
	Type            string  `json:"type"` // VHI | SC | SH | RO | TA | PS | D1CT | D2CT | MASKS
	StartDay        int     `json:"startDay,omitempty"`
	EndDay          int     `json:"endDay,omitempty"`
	Compliance      float64 `json:"compliance,omitempty"`
	IsolationDays   int     `json:"isolationDays,omitempty"`
	Level           float64 `json:"level,omitempty"`           // RO release fraction
	ReopenDay       int     `json:"reopenDay,omitempty"`       // RO
	PeriodDays      int     `json:"periodDays,omitempty"`      // PS
	DetectProb      float64 `json:"detectProb,omitempty"`      // TA / CT
	TraceCompliance float64 `json:"traceCompliance,omitempty"` // CT
	WeightFactor    float64 `json:"weightFactor,omitempty"`    // MASKS
}

// BuildInterventions materializes the intervention stack. An RO spec
// attaches to the most recent SH spec before it, mirroring "RO (partial
// reopening), which extends SH".
func BuildInterventions(specs []InterventionSpec) ([]Intervention, error) {
	var out []Intervention
	var lastSH *StayAtHome
	for i, sp := range specs {
		switch sp.Type {
		case "VHI":
			out = append(out, &VoluntaryHomeIsolation{
				Compliance: sp.Compliance, IsolationDays: sp.IsolationDays,
			})
		case "SC":
			out = append(out, &SchoolClosure{StartDay: sp.StartDay, EndDay: sp.EndDay})
		case "SH":
			sh := &StayAtHome{StartDay: sp.StartDay, EndDay: sp.EndDay, Compliance: sp.Compliance}
			lastSH = sh
			out = append(out, sh)
		case "RO":
			if lastSH == nil {
				return nil, fmt.Errorf("epihiper: RO spec %d has no preceding SH", i)
			}
			out = append(out, &PartialReopen{SH: lastSH, ReopenDay: sp.ReopenDay, Level: sp.Level})
		case "TA":
			out = append(out, &TestAndIsolate{DailyDetectRate: sp.DetectProb, IsolationDays: sp.IsolationDays})
		case "PS":
			out = append(out, &PulsingShutdown{
				StartDay: sp.StartDay, EndDay: sp.EndDay,
				PeriodDays: sp.PeriodDays, Compliance: sp.Compliance,
			})
		case "MASKS":
			out = append(out, &MaskMandate{
				StartDay: sp.StartDay, EndDay: sp.EndDay, WeightFactor: sp.WeightFactor,
			})
		case "D1CT", "D2CT":
			dist := 1
			if sp.Type == "D2CT" {
				dist = 2
			}
			out = append(out, &ContactTracing{
				Distance: dist, DetectProb: sp.DetectProb,
				TraceCompliance: sp.TraceCompliance, IsolationDays: sp.IsolationDays,
			})
		default:
			return nil, fmt.Errorf("epihiper: unknown intervention type %q", sp.Type)
		}
	}
	return out, nil
}

// ParseJSONConfig decodes and validates a serialized configuration.
func ParseJSONConfig(data []byte) (*JSONConfig, error) {
	var cfg JSONConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("epihiper: parsing config: %w", err)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("epihiper: config needs a positive horizon, got %d", cfg.Days)
	}
	if cfg.Region == "" {
		return nil, fmt.Errorf("epihiper: config needs a region")
	}
	if _, err := BuildInterventions(cfg.Interventions); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Build assembles a runnable Config against a materialized network. When
// the JSON embeds no model, the CDC COVID-19 model is used.
func (c *JSONConfig) Build(net *synthpop.Network) (Config, error) {
	if net == nil {
		return Config{}, fmt.Errorf("epihiper: nil network")
	}
	if net.Region != c.Region {
		return Config{}, fmt.Errorf("epihiper: config is for %s but network is %s", c.Region, net.Region)
	}
	model := c.Model
	if model == nil {
		model = disease.COVID19()
	}
	ivs, err := BuildInterventions(c.Interventions)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Model:              model,
		Network:            net,
		Days:               c.Days,
		Parallelism:        c.Shards,
		PartitionTolerance: c.PartitionTolerance,
		Seed:               c.Seed,
		Seeds:              c.Seeds,
		SeedPersons:        c.SeedPersons,
		Interventions:      ivs,
	}, nil
}

// Encode serializes the configuration.
func (c *JSONConfig) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}
