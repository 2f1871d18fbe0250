package epihiper

import (
	"testing"

	"repro/internal/disease"
)

func TestJSONConfigRoundTrip(t *testing.T) {
	cfg := &JSONConfig{
		Region: "VA", Days: 90, Shards: 4, Seed: 42,
		Model: disease.COVID19(),
		Seeds: []Seeding{{CountyFIPS: 51001, Day: 0, Count: 5}},
		Interventions: []InterventionSpec{
			{Type: "VHI", Compliance: 0.5, IsolationDays: 14},
			{Type: "SC", StartDay: 15, EndDay: 90},
			{Type: "SH", StartDay: 30, EndDay: 90, Compliance: 0.6},
			{Type: "RO", ReopenDay: 60, Level: 0.5},
		},
	}
	data, err := cfg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Region != "VA" || back.Days != 90 || back.Seed != 42 || back.Shards != 4 {
		t.Fatal("header fields lost")
	}
	if len(back.Seeds) != 1 || back.Seeds[0].CountyFIPS != 51001 {
		t.Fatal("seeds lost")
	}
	if len(back.Interventions) != 4 {
		t.Fatal("interventions lost")
	}
	if back.Model == nil || back.Model.Transmissibility != 0.18 {
		t.Fatal("embedded model lost")
	}
}

func TestJSONConfigBuildAndRun(t *testing.T) {
	net := testNetwork(t, 60)
	cfg := &JSONConfig{
		Region: "VA", Days: 30, Shards: 2, Seed: 7,
		Seeds: seedAll(net, 5),
		Interventions: []InterventionSpec{
			{Type: "VHI", Compliance: 0.4, IsolationDays: 14},
			{Type: "SH", StartDay: 10, EndDay: 30, Compliance: 0.5},
		},
	}
	data, err := cfg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSONConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	runCfg, err := parsed.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	if runCfg.Parallelism != 2 {
		t.Fatalf("\"shards\": 2 built Parallelism %d", runCfg.Parallelism)
	}
	sim, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Default model applied (no model embedded).
	if sim.Model().Name != "covid19-cdc-best-guess" {
		t.Fatal("default model not applied")
	}
	if res.Days != 30 {
		t.Fatal("horizon lost")
	}
}

func TestJSONConfigValidation(t *testing.T) {
	// The retired "parallelism" key is an unknown key: accepted and ignored.
	if cfg, err := ParseJSONConfig([]byte(`{"region":"VA","days":10,"parallelism":4}`)); err != nil || cfg.Shards != 0 {
		t.Errorf("legacy \"parallelism\" key: cfg %+v, err %v; want it ignored", cfg, err)
	}
	if _, err := ParseJSONConfig([]byte(`{`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseJSONConfig([]byte(`{"region":"VA","days":0}`)); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := ParseJSONConfig([]byte(`{"days":10}`)); err == nil {
		t.Error("missing region accepted")
	}
	if _, err := ParseJSONConfig([]byte(`{"region":"VA","days":10,"interventions":[{"type":"MAGIC"}]}`)); err == nil {
		t.Error("unknown intervention accepted")
	}
	if _, err := ParseJSONConfig([]byte(`{"region":"VA","days":10,"interventions":[{"type":"RO"}]}`)); err == nil {
		t.Error("RO without SH accepted")
	}
}

func TestBuildInterventionsAllTypes(t *testing.T) {
	specs := []InterventionSpec{
		{Type: "VHI", Compliance: 0.5},
		{Type: "SC", StartDay: 1, EndDay: 2},
		{Type: "SH", StartDay: 1, EndDay: 9, Compliance: 0.7},
		{Type: "RO", ReopenDay: 5, Level: 0.4},
		{Type: "TA", DetectProb: 0.2},
		{Type: "PS", StartDay: 1, EndDay: 30, PeriodDays: 7, Compliance: 0.5},
		{Type: "D1CT", DetectProb: 0.3, TraceCompliance: 0.5},
		{Type: "D2CT", DetectProb: 0.3, TraceCompliance: 0.5},
		{Type: "MASKS", StartDay: 1, EndDay: 30, WeightFactor: 0.6},
	}
	ivs, err := BuildInterventions(specs)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"VHI", "SC", "SH", "RO", "TA", "PS", "D1CT", "D2CT", "masks"}
	for i, iv := range ivs {
		if iv.Name() != wantNames[i] {
			t.Errorf("intervention %d: %s want %s", i, iv.Name(), wantNames[i])
		}
	}
	// RO attached to the SH instance.
	ro := ivs[3].(*PartialReopen)
	if ro.SH != ivs[2].(*StayAtHome) {
		t.Fatal("RO not wired to the preceding SH")
	}
}

func TestBuildMismatchedNetwork(t *testing.T) {
	net := testNetwork(t, 61)
	cfg := &JSONConfig{Region: "TX", Days: 10}
	if _, err := cfg.Build(net); err == nil {
		t.Fatal("region mismatch accepted")
	}
	if _, err := cfg.Build(nil); err == nil {
		t.Fatal("nil network accepted")
	}
}
