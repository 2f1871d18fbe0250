package fidelity

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzFidelityRoute drives Route with adversarial request shapes: whatever
// the bytes decode to, routing must either answer or error — never panic —
// and a forced-abm request must always come back as a bare TierABM decision
// (no surrogate answer), which is what guarantees the caller falls through
// to the exact legacy code path.
func FuzzFidelityRoute(f *testing.F) {
	f.Add("prediction", "VA", 40, 15, 40, 2, "auto", 0.1, 0.2, 0.65, 0.5, 0.5, uint8(1))
	f.Add("whatif", "RI", 10, 5, 10, 1, "abm", 0.0, 0.1, 0.1, 0.0, 1.0, uint8(2))
	f.Add("night", "", -3, 0, 0, 0, "emulator", -1.0, math.NaN(), 0.0, 2.0, -1.0, uint8(0))
	f.Add("prediction", "zz", 1000000, -5, -9, 3, "Metapop", math.Inf(1), 0.3, 0.7, 0.4, 0.6, uint8(7))

	r := NewRouter(Config{Fingerprint: "fuzz", Scale: 40000})
	f.Fuzz(func(t *testing.T, workflow, state string, days, shStart, shEnd, reps int,
		mode string, budget, tau, symp, shc, vhic float64, nWhatIfs uint8) {
		req := Request{
			Workflow: workflow, State: state,
			Days: days, SHStart: shStart, SHEnd: shEnd, Replicates: reps,
			Configs:        []core.Params{{TAU: tau, SYMP: symp, SHCompliance: shc, VHICompliance: vhic}},
			Mode:           Tier(mode),
			MaxUncertainty: budget,
		}
		for i := 0; i < int(nWhatIfs%4); i++ {
			req.WhatIfs = append(req.WhatIfs, core.WhatIf{Name: string(rune('a' + i)), SHEndShift: i * 10})
		}
		d, err := r.Route(context.Background(), req)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if d.Tier == TierABM && d.Answer != nil {
			t.Fatalf("abm decision carried a surrogate answer (mode %q)", mode)
		}
		if req.Mode == TierABM && d.Tier != TierABM {
			t.Fatalf("forced abm was routed to %s", d.Tier)
		}
		if d.Tier != TierABM && d.Answer == nil {
			t.Fatalf("surrogate tier %s carried no answer", d.Tier)
		}
		if math.IsNaN(d.Uncertainty) || d.Uncertainty < 0 {
			t.Fatalf("bad uncertainty %v", d.Uncertainty)
		}
	})
}
