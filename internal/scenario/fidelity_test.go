package scenario

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fidelity"
)

func TestNormalizeFidelityTiers(t *testing.T) {
	for _, tc := range []struct {
		in, want   string
		wantBudget float64
	}{
		{"", "", 0},
		{"AUTO", "auto", fidelity.DefaultBudget},
		{"  Auto ", "auto", fidelity.DefaultBudget},
		{"Emulator", "emulator", 0},
		{"METAPOP", "metapop", 0},
		{"abm", "abm", 0},
	} {
		s, err := Spec{Workflow: "prediction", State: "VA", Fidelity: tc.in}.Normalize()
		if err != nil {
			t.Fatalf("fidelity %q rejected: %v", tc.in, err)
		}
		if s.Fidelity != tc.want || s.MaxUncertainty != tc.wantBudget {
			t.Errorf("fidelity %q → (%q, %v), want (%q, %v)",
				tc.in, s.Fidelity, s.MaxUncertainty, tc.want, tc.wantBudget)
		}
	}
}

func TestNormalizeFidelityRejections(t *testing.T) {
	for name, spec := range map[string]Spec{
		"unknown tier": {Workflow: "prediction", State: "VA", Fidelity: "gp"},
		"neg budget":   {Workflow: "prediction", State: "VA", Fidelity: "auto", MaxUncertainty: -0.5},
		"nan budget":   {Workflow: "prediction", State: "VA", Fidelity: "auto", MaxUncertainty: math.NaN()},
		"inf budget":   {Workflow: "prediction", State: "VA", Fidelity: "auto", MaxUncertainty: math.Inf(1)},
	} {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFidelityBudgetClearedWhereMeaningless: non-auto tiers ignore the
// budget, so it must not leak into the content hash.
func TestFidelityBudgetClearedWhereMeaningless(t *testing.T) {
	a, err := Spec{Workflow: "prediction", State: "VA", Fidelity: "abm", MaxUncertainty: 0.2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Spec{Workflow: "prediction", State: "VA", Fidelity: "abm"}.Normalize()
	ha, _ := a.Hash("fp")
	hb, _ := b.Hash("fp")
	if ha != hb {
		t.Fatal("budget under forced tier changed the hash")
	}
	// Night specs have no fidelity at all.
	n, err := Spec{Workflow: "night", Fidelity: "auto", MaxUncertainty: 0.3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Fidelity != "" || n.MaxUncertainty != 0 {
		t.Fatalf("night spec kept fidelity fields: %+v", n)
	}
}

// TestLegacySpecHashUnchanged pins the exact content address of a
// fidelity-free spec: the new trailing Spec fields are omitempty, so legacy
// clients' cache keys must survive this PR byte-for-byte.
func TestLegacySpecHashUnchanged(t *testing.T) {
	s, err := Spec{Workflow: "prediction", State: "VA"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), "fidelity") || strings.Contains(string(canon), "max_uncertainty") {
		t.Fatalf("legacy canonical JSON mentions fidelity fields: %s", canon)
	}
	const pinned = "1be607d7b4868ec6d705c5cd79fa6638b917c1922dd4f6e0fc39645106a8935f"
	h, err := s.Hash("pin")
	if err != nil {
		t.Fatal(err)
	}
	if h != pinned {
		t.Fatalf("legacy spec hash drifted: %s (pinned %s)", h, pinned)
	}
}

// TestFidelityGoldenJSONRoundTrip: a spec with fidelity fields survives
// JSON marshal → unmarshal → normalize with identical canonical form and
// hash, regardless of field order on the wire.
func TestFidelityGoldenJSONRoundTrip(t *testing.T) {
	s, err := Spec{Workflow: "whatif", State: "va", Fidelity: "Auto", MaxUncertainty: 0.25}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(canon, &back); err != nil {
		t.Fatal(err)
	}
	back2, err := back.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	canon2, _ := back2.Canonical()
	if string(canon) != string(canon2) {
		t.Fatalf("round trip changed canonical form:\n%s\n%s", canon, canon2)
	}

	// Same fields, shuffled order on the wire ⇒ same SHA-256.
	shuffled := `{"max_uncertainty":0.25,"state":"VA","fidelity":"auto","workflow":"whatif"}`
	var alt Spec
	if err := json.Unmarshal([]byte(shuffled), &alt); err != nil {
		t.Fatal(err)
	}
	altN, err := alt.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s.Hash("fp")
	h2, _ := altN.Hash("fp")
	if h1 != h2 {
		t.Fatalf("field order changed the hash: %s vs %s", h1, h2)
	}
}

func fidelityTestService(t *testing.T, scale int, minFit int) (*Service, *core.Pipeline, *fidelity.Router) {
	t.Helper()
	p := core.NewPipeline(2020, core.WithScale(scale), core.WithParallelism(2))
	router := fidelity.NewRouter(fidelity.Config{
		Fingerprint: p.Fingerprint(), Scale: scale, MinFit: minFit, MaxStale: 1, Sync: true,
	})
	svc := NewService(Config{Pipeline: p, Workers: 1, Fidelity: router})
	t.Cleanup(func() {
		_ = svc.Drain(context.Background())
		router.Close()
	})
	return svc, p, router
}

// TestFidelityABMBitIdentical: a spec forced to the abm tier must produce
// byte-identical forecasts to the same spec on the legacy runner — the
// ladder may only annotate, never perturb, the exact path.
func TestFidelityABMBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ABM")
	}
	svc, p, _ := fidelityTestService(t, 40000, 4)
	spec := Spec{
		Workflow: "prediction", State: "VA", Days: 30, Replicates: 2,
		Configs: []ParamSpec{{TAU: 0.2, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}},
	}
	legacy, err := PipelineRunner(p)(context.Background(), mustNormalize(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	spec.Fidelity = "abm"
	job, err := submit(svc, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != "abm" || res.TierReason != "forced" || res.Uncertainty != 0 {
		t.Fatalf("tier annotation = (%q, %q, %v)", res.Tier, res.TierReason, res.Uncertainty)
	}
	if !reflect.DeepEqual(res.Prediction, legacy.Prediction) {
		t.Fatal("forced-abm forecast differs from the legacy path")
	}

	// A fidelity-free spec through the fidelity runner is the legacy result
	// with no tier annotation at all.
	spec.Fidelity = ""
	job2, err := submit(svc, spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tier != "" || res2.TierReason != "" || res2.Uncertainty != 0 {
		t.Fatalf("legacy spec carries tier annotation: %+v", res2)
	}
	if !reflect.DeepEqual(res2.Prediction, legacy.Prediction) {
		t.Fatal("legacy spec through fidelity runner differs from legacy runner")
	}
}

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	ns, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestFidelityServiceLearns: through the full service, auto-routed specs
// escalate to the ABM while cold, train the emulator, and eventually serve
// without simulating.
func TestFidelityServiceLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ABM")
	}
	svc, _, router := fidelityTestService(t, 40000, 3)
	submit := func(tau float64) *Result {
		t.Helper()
		job, err := submit(svc, Spec{
			Workflow: "prediction", State: "VA", Days: 30, Replicates: 2,
			Configs:  []ParamSpec{{TAU: tau, SYMP: 0.65, SHCompliance: 0.5, VHICompliance: 0.5}},
			Fidelity: "auto", MaxUncertainty: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tau := range []float64{0.16, 0.20, 0.24} {
		if res := submit(tau); res.Tier != "abm" {
			t.Fatalf("cold query served by %q", res.Tier)
		}
	}
	if router.FittedFamilies() != 1 {
		t.Fatalf("emulator not fitted after %d observations", 3)
	}
	res := submit(0.18)
	if res.Tier != "emulator" {
		t.Fatalf("warm in-region query served by %q (%s)", res.Tier, res.TierReason)
	}
	if res.Uncertainty <= 0 {
		t.Fatalf("emulator answer with zero uncertainty")
	}
	if res.Prediction == nil || len(res.Prediction.Confirmed.Median) != 30 {
		t.Fatalf("malformed emulator result: %+v", res.Prediction)
	}
}

func TestReadyzGatesOnFidelityWarmth(t *testing.T) {
	svc, _, _ := fidelityTestService(t, 40000, 3)
	srv := NewServer(svc)

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	if w.Code != 503 {
		t.Fatalf("cold /readyz = %d, want 503", w.Code)
	}
	var r Readiness
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Ready {
		t.Fatal("cold service reports ready")
	}
	if r.Fidelity == nil || r.Fidelity["emulator"].Ready {
		t.Fatalf("per-tier state missing or wrong: %+v", r.Fidelity)
	}
	if !r.Fidelity["abm"].Ready || !r.Fidelity["metapop"].Ready {
		t.Fatalf("abm/metapop tiers must always be ready: %+v", r.Fidelity)
	}
	// /healthz is liveness and stays 200 while /readyz gates.
	hw := httptest.NewRecorder()
	srv.ServeHTTP(hw, httptest.NewRequest("GET", "/healthz", nil))
	if hw.Code != 200 {
		t.Fatalf("/healthz = %d, want 200", hw.Code)
	}
}

func TestReadyzWithoutFidelity(t *testing.T) {
	svc := NewService(Config{Runner: func(ctx context.Context, spec Spec) (*Result, error) {
		return &Result{}, nil
	}, Fingerprint: "fp", Workers: 1})
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	// Workers start asynchronously; readiness flips once they are up.
	deadline := 0
	for !svc.Readiness().Ready && deadline < 1000 {
		deadline++
	}
	srv := NewServer(svc)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	var r Readiness
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Fidelity != nil {
		t.Fatalf("fidelity-less service reports tier state: %+v", r.Fidelity)
	}
}

func TestResultCacheHitRatioGauge(t *testing.T) {
	svc := NewService(Config{Runner: func(ctx context.Context, spec Spec) (*Result, error) {
		return &Result{}, nil
	}, Fingerprint: "fp", Workers: 1})
	t.Cleanup(func() { _ = svc.Drain(context.Background()) })
	var sb strings.Builder
	if err := svc.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "epi_scenario_cache_hit_ratio") {
		t.Fatal("epi_scenario_cache_hit_ratio not exposed")
	}
}
