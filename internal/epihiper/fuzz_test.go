package epihiper

import (
	"encoding/json"
	"testing"

	"repro/internal/disease"
)

// FuzzParseJSONConfig hardens the configuration parser: arbitrary input
// must produce an error or a valid, buildable configuration.
func FuzzParseJSONConfig(f *testing.F) {
	good := &JSONConfig{
		Region: "VA", Days: 30, Seed: 1, Shards: 2,
		Interventions: []InterventionSpec{
			{Type: "SH", StartDay: 5, EndDay: 20, Compliance: 0.5},
		},
	}
	data, _ := good.Encode()
	f.Add(string(data))
	f.Add(`{"region":"VA","days":10}`)
	f.Add(`{"region":"VA","days":-1}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, data string) {
		cfg, err := ParseJSONConfig([]byte(data))
		if err != nil {
			return
		}
		if cfg.Days <= 0 || cfg.Region == "" {
			t.Fatal("invalid config accepted")
		}
		if _, err := BuildInterventions(cfg.Interventions); err != nil {
			t.Fatal("parsed config has unbuildable interventions")
		}
	})
}

// FuzzDiseaseModelJSON hardens the disease-model decoder: any accepted
// model must pass Validate.
func FuzzDiseaseModelJSON(f *testing.F) {
	data, _ := json.Marshal(disease.COVID19())
	f.Add(string(data))
	f.Add(`{"name":"x","transmissibility":0.1,"exposedState":"Exposed","transitions":[]}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, data string) {
		var m disease.Model
		if err := json.Unmarshal([]byte(data), &m); err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid model: %v", err)
		}
	})
}
