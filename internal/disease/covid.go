package disease

import "repro/internal/stats"

// ageProb is a convenience constructor for a probability row of Table III.
func ageProb(a0, a5, a18, a50, a65 float64) [NumAgeGroups]float64 {
	return [NumAgeGroups]float64{a0, a5, a18, a50, a65}
}

// ageDwellNorm builds age-specific truncated-normal dwell distributions
// (Table III rows given as dt-mean / dt-std dev pairs). Dwell samples are
// truncated to [0.5, 60] days; the simulator rounds to whole ticks with a
// minimum of one.
func ageDwellNorm(means, sds [NumAgeGroups]float64) [NumAgeGroups]stats.Dist {
	var out [NumAgeGroups]stats.Dist
	for i := range out {
		out[i] = stats.TruncNormal{Mean: means[i], SD: sds[i], Lo: 0.5, Hi: 60}
	}
	return out
}

func uniformVals(v float64) [NumAgeGroups]float64 {
	return [NumAgeGroups]float64{v, v, v, v, v}
}

// COVID19 returns the paper's COVID-19 disease model (Figure 12, Tables III
// and IV). The probability columns of Table III reconstruct exactly — the
// three Symptomatic out-probabilities and the two out-probabilities of each
// of Attended(D) and Hospitalized / Hospitalized(D) sum to 1.0 in every age
// band. Two dwell times that the published table renders ambiguously
// (Exposed→Presymptomatic, Presymptomatic→Symptomatic) are fixed at 1 and 2
// days respectively, matching the CDC incubation decomposition the model is
// built from; DESIGN.md records the substitution.
func COVID19() *Model {
	m := &Model{
		Name:             "covid19-cdc-best-guess",
		Transmissibility: 0.18, // Table IV "transmissability"; calibration parameter TAU
		ExposedState:     Exposed,
	}
	// Table IV: per-state infectivity and susceptibility.
	m.Attrs[Presymptomatic] = StateAttr{Infectivity: 0.8}
	m.Attrs[Symptomatic] = StateAttr{Infectivity: 1.0}
	m.Attrs[Asymptomatic] = StateAttr{Infectivity: 1.0}
	m.Attrs[Susceptible] = StateAttr{Susceptibility: 1.0}
	m.Attrs[RxFailure] = StateAttr{Susceptibility: 1.0}

	// ---- Table III, asymptomatic branch ----
	// Exposed → Asymptomatic: prob 0.35, dwell N(5, 1).
	m.AddTransition(Transition{
		From: Exposed, To: Asymptomatic,
		Prob:  uniformProb(0.35),
		Dwell: ageDwellNorm(uniformVals(5), uniformVals(1)),
	})
	// Asymptomatic → Recovered: prob 1, dwell N(5, 1).
	m.AddTransition(Transition{
		From: Asymptomatic, To: Recovered,
		Prob:  uniformProb(1),
		Dwell: ageDwellNorm(uniformVals(5), uniformVals(1)),
	})

	// ---- Symptomatic branch ----
	// Exposed → Presymptomatic: prob 0.65, dwell fixed 1 day.
	m.AddTransition(Transition{
		From: Exposed, To: Presymptomatic,
		Prob:  uniformProb(0.65),
		Dwell: uniformDwell(stats.Fixed{V: 1}),
	})
	// Presymptomatic → Symptomatic: prob 1, dwell fixed 2 days.
	m.AddTransition(Transition{
		From: Presymptomatic, To: Symptomatic,
		Prob:  uniformProb(1),
		Dwell: uniformDwell(stats.Fixed{V: 2}),
	})

	// Symptomatic → Attended (recovering track): age-specific probabilities;
	// discrete dwell {1:0.175, 2:0.175, 3:0.1, 4:0.1, 5:0.1, 6:0.1, 7:0.1,
	// 8:0.05, 9:0.05, 10:0.05}.
	sympDwell, err := stats.NewDiscrete(
		[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		[]float64{0.175, 0.175, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05},
	)
	if err != nil {
		panic("disease: bad discrete dwell: " + err.Error())
	}
	m.AddTransition(Transition{
		From: Symptomatic, To: Attended,
		Prob:  ageProb(0.9594, 0.9894, 0.9594, 0.912, 0.788),
		Dwell: uniformDwell(sympDwell),
	})
	// Symptomatic → Attended(D) (death track): fixed 2 days.
	m.AddTransition(Transition{
		From: Symptomatic, To: AttendedD,
		Prob:  ageProb(0.0006, 0.0006, 0.0006, 0.003, 0.017),
		Dwell: uniformDwell(stats.Fixed{V: 2}),
	})
	// Symptomatic → Attended(H) (hospitalization track): fixed 1 day.
	m.AddTransition(Transition{
		From: Symptomatic, To: AttendedH,
		Prob:  ageProb(0.04, 0.01, 0.04, 0.085, 0.195),
		Dwell: uniformDwell(stats.Fixed{V: 1}),
	})

	// Attended → Recovered: prob 1, dwell N(5, 1).
	m.AddTransition(Transition{
		From: Attended, To: Recovered,
		Prob:  uniformProb(1),
		Dwell: ageDwellNorm(uniformVals(5), uniformVals(1)),
	})

	// ---- Death track ----
	// Attended(D) → Hospitalized(D): prob 0.95, fixed 2 days.
	m.AddTransition(Transition{
		From: AttendedD, To: HospitalizedD,
		Prob:  uniformProb(0.95),
		Dwell: uniformDwell(stats.Fixed{V: 2}),
	})
	// Attended(D) → Death directly: prob 0.05, fixed 8 days.
	m.AddTransition(Transition{
		From: AttendedD, To: Dead,
		Prob:  uniformProb(0.05),
		Dwell: uniformDwell(stats.Fixed{V: 8}),
	})
	// Hospitalized(D) → Ventilated(D): age-specific, fixed 2 days.
	m.AddTransition(Transition{
		From: HospitalizedD, To: VentilatedD,
		Prob:  ageProb(0.06, 0.06, 0.06, 0.15, 0.225),
		Dwell: uniformDwell(stats.Fixed{V: 2}),
	})
	// Hospitalized(D) → Death: complement, fixed 6 days.
	m.AddTransition(Transition{
		From: HospitalizedD, To: Dead,
		Prob:  ageProb(0.94, 0.94, 0.94, 0.85, 0.775),
		Dwell: uniformDwell(stats.Fixed{V: 6}),
	})
	// Ventilated(D) → Death: prob 1, fixed 4 days.
	m.AddTransition(Transition{
		From: VentilatedD, To: Dead,
		Prob:  uniformProb(1),
		Dwell: uniformDwell(stats.Fixed{V: 4}),
	})

	// ---- Hospitalization track ----
	// Attended(H) → Hospitalized: prob 1, dwell N(means, sds) by age.
	m.AddTransition(Transition{
		From: AttendedH, To: Hospitalized,
		Prob: uniformProb(1),
		Dwell: ageDwellNorm(
			[NumAgeGroups]float64{5, 5, 5, 5.3, 4.2},
			[NumAgeGroups]float64{4.6, 4.6, 4.6, 5.2, 5.2},
		),
	})
	// Hospitalized → Recovered.
	m.AddTransition(Transition{
		From: Hospitalized, To: Recovered,
		Prob: ageProb(0.94, 0.94, 0.94, 0.85, 0.775),
		Dwell: ageDwellNorm(
			[NumAgeGroups]float64{3.1, 3.1, 3.1, 7.8, 6.5},
			[NumAgeGroups]float64{3.7, 3.7, 3.7, 6.3, 4.9},
		),
	})
	// Hospitalized → Ventilated: dwell N(1, 0.2).
	m.AddTransition(Transition{
		From: Hospitalized, To: Ventilated,
		Prob:  ageProb(0.06, 0.06, 0.06, 0.15, 0.225),
		Dwell: ageDwellNorm(uniformVals(1), uniformVals(0.2)),
	})
	// Ventilated → Recovered.
	m.AddTransition(Transition{
		From: Ventilated, To: Recovered,
		Prob: uniformProb(1),
		Dwell: ageDwellNorm(
			[NumAgeGroups]float64{2.1, 2.1, 2.1, 6.8, 5.5},
			[NumAgeGroups]float64{3.7, 3.7, 3.7, 6.3, 4.9},
		),
	})
	return m
}

// SIR returns the minimal three-state model of Appendix A, useful for tests
// and for the illustrative five-person example of Figure 11. The infectious
// period is geometric-ish via a fixed dwell of the given days.
func SIR(transmissibility float64, infectiousDays float64) *Model {
	m := &Model{
		Name:             "sir",
		Transmissibility: transmissibility,
		ExposedState:     Symptomatic, // direct S → I
	}
	m.Attrs[Susceptible] = StateAttr{Susceptibility: 1}
	m.Attrs[Symptomatic] = StateAttr{Infectivity: 1}
	m.AddTransition(Transition{
		From: Symptomatic, To: Recovered,
		Prob:  uniformProb(1),
		Dwell: uniformDwell(stats.Fixed{V: infectiousDays}),
	})
	return m
}
