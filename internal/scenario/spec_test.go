package scenario

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestNormalizePredictionDefaults(t *testing.T) {
	s, err := Spec{Workflow: "Prediction", State: "va"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Workflow != WorkflowPrediction || s.State != "VA" {
		t.Fatalf("workflow/state not canonicalized: %+v", s)
	}
	if s.Days != 120 || s.Replicates != 15 || s.SHStart != 15 || s.SHEnd != 120 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if len(s.Configs) != 4 {
		t.Fatalf("%d default configs want 4", len(s.Configs))
	}
	if s.WhatIfs != nil || s.Night != nil {
		t.Fatalf("foreign fields not cleared: %+v", s)
	}
}

func TestNormalizeWhatIfDefaults(t *testing.T) {
	s, err := Spec{Workflow: WorkflowWhatIf, State: "VA"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicates != 5 {
		t.Fatalf("whatif replicates %d want 5", s.Replicates)
	}
	std := core.StandardWhatIfs()
	if len(s.WhatIfs) != len(std) {
		t.Fatalf("%d default what-ifs want %d", len(s.WhatIfs), len(std))
	}
	for i, w := range s.WhatIfs {
		if w.Name != std[i].Name {
			t.Fatalf("what-if %d name %q want %q", i, w.Name, std[i].Name)
		}
	}
}

func TestNormalizeNightDefaults(t *testing.T) {
	s, err := Spec{Workflow: WorkflowNight}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n := s.Night
	if n == nil {
		t.Fatal("no night spec")
	}
	row := core.TableI()[1] // prediction family
	if n.Family != "prediction" || n.Cells != row.Cells || n.Replicates != row.Replicates {
		t.Fatalf("night defaults wrong: %+v", n)
	}
	if n.Heuristic != "FFDT-DC" || n.Seed != 1 {
		t.Fatalf("night heuristic/seed defaults wrong: %+v", n)
	}
	if s.State != "" || s.Days != 0 || s.Configs != nil {
		t.Fatalf("forecast fields not cleared for night: %+v", s)
	}
}

func TestHashCanonicalization(t *testing.T) {
	// A spec that spells out every default must hash identically to the
	// terse form — they denote the same deterministic computation.
	terse, err := Spec{Workflow: "prediction", State: "va"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := Spec{
		Workflow: "PREDICTION", State: "VA", Days: 120, Replicates: 15,
		SHStart: 15, SHEnd: 120, Configs: defaultConfigs(),
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := terse.Hash("fp")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := spelled.Hash("fp")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("equivalent specs hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q not 64 hex chars", h1)
	}

	other, _ := Spec{Workflow: "prediction", State: "VA", Days: 121}.Normalize()
	h3, _ := other.Hash("fp")
	if h3 == h1 {
		t.Fatal("different horizons hash equal")
	}
	h4, _ := terse.Hash("other-pipeline")
	if h4 == h1 {
		t.Fatal("different pipeline fingerprints hash equal")
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing workflow", Spec{}, "missing workflow"},
		{"unknown workflow", Spec{Workflow: "calibrate-all"}, "unknown workflow"},
		{"bad state", Spec{Workflow: "prediction", State: "ZZ"}, "bad state"},
		{"days bound", Spec{Workflow: "prediction", State: "VA", Days: MaxDays + 1}, "exceeds bound"},
		{"replicates bound", Spec{Workflow: "prediction", State: "VA", Replicates: MaxReplicates + 1}, "exceeds bound"},
		{"bad config", Spec{Workflow: "prediction", State: "VA",
			Configs: []ParamSpec{{TAU: -1}}}, "out of range"},
		{"dup whatif", Spec{Workflow: "whatif", State: "VA",
			WhatIfs: []WhatIfSpec{{Name: "x"}, {Name: "x"}}}, "duplicate"},
		{"unnamed whatif", Spec{Workflow: "whatif", State: "VA",
			WhatIfs: []WhatIfSpec{{SHEndShift: -7}}}, "no name"},
		{"bad family", Spec{Workflow: "night", Night: &NightSpec{Family: "mystery"}}, "unknown night family"},
		{"bad heuristic", Spec{Workflow: "night", Night: &NightSpec{Heuristic: "LPT"}}, "unknown heuristic"},
		{"night cells bound", Spec{Workflow: "night", Night: &NightSpec{Cells: MaxNightCells + 1}}, "exceed bound"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Normalize(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestFingerprintDistinguishesPipelines(t *testing.T) {
	fp := func(p *core.Pipeline) string {
		s := NewService(Config{Pipeline: p, Workers: 1})
		defer s.Drain(context.Background())
		return s.fingerprint
	}
	a := fp(core.NewPipeline(1))
	b := fp(core.NewPipeline(2))
	c := fp(core.NewPipeline(1, core.WithScale(999)))
	if a == b || a == c {
		t.Fatalf("fingerprints collide: %q %q %q", a, b, c)
	}
	if a != fp(core.NewPipeline(1)) {
		t.Fatal("fingerprint not deterministic")
	}
}
