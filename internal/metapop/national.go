package metapop

import (
	"fmt"
	"math"

	"repro/internal/synthpop"
)

// This file extends the metapopulation model to the national scale the
// paper's forecasting heritage uses ("the US national-scale models we have
// employed for forecasting spatio-temporal spread of seasonal influenza"):
// all 3,142 counties of the 51 regions, with dense within-state gravity
// coupling replaced by a sparse link structure so a 200-day national run
// stays fast.

// Link is one directed coupling edge of the sparse national model.
type Link struct {
	To int
	W  float64
}

// SetSparseLinks switches the model to sparse coupling. Each county's
// links (including its self-link) must sum to 1.
func (m *Model) SetSparseLinks(links [][]Link) error {
	if len(links) != len(m.Counties) {
		return fmt.Errorf("metapop: %d link rows for %d counties", len(links), len(m.Counties))
	}
	for i, row := range links {
		sum := 0.0
		for _, l := range row {
			if l.To < 0 || l.To >= len(m.Counties) {
				return fmt.Errorf("metapop: link target %d out of range (county %d)", l.To, i)
			}
			if l.W < 0 {
				return fmt.Errorf("metapop: negative link weight at county %d", i)
			}
			sum += l.W
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("metapop: county %d links sum to %g", i, sum)
		}
	}
	m.links = links
	return nil
}

// NationalConfig tunes NewUS.
type NationalConfig struct {
	// SelfWeight is each county's within-county contact share.
	SelfWeight float64
	// InStateWeight is the share spread over the county's within-state
	// neighbors (to the state's top counties, gravity-weighted).
	InStateWeight float64
	// The remainder (1 − Self − InState) couples each state's largest
	// county to the other states' largest counties — the air-travel
	// backbone that carries the epidemic between states.
	NeighborsPerCounty int
}

// DefaultNationalConfig returns the standard parameters.
func DefaultNationalConfig() NationalConfig {
	return NationalConfig{SelfWeight: 0.88, InStateWeight: 0.10, NeighborsPerCounty: 5}
}

// NewUS builds the sparse national model over all 51 regions.
func NewUS(cfg NationalConfig) (*Model, error) {
	if cfg.SelfWeight <= 0 || cfg.SelfWeight >= 1 {
		cfg.SelfWeight = 0.88
	}
	if cfg.InStateWeight < 0 || cfg.SelfWeight+cfg.InStateWeight >= 1 {
		cfg.InStateWeight = (1 - cfg.SelfWeight) * 0.8
	}
	if cfg.NeighborsPerCounty <= 0 {
		cfg.NeighborsPerCounty = 5
	}
	m := &Model{State: "US"}
	// Build counties state by state, remembering each state's block and
	// its hub (largest county, which is index 0 of the block under the
	// Zipf profile).
	type block struct{ start, n, hub int }
	var blocks []block
	for _, st := range synthpop.States {
		start := len(m.Counties)
		m.Counties = append(m.Counties, zipfCounties(st)...)
		blocks = append(blocks, block{start: start, n: st.Counties, hub: start})
	}
	interState := 1 - cfg.SelfWeight - cfg.InStateWeight
	links := make([][]Link, len(m.Counties))
	for bi, b := range blocks {
		// Within-state: every county couples to the state's top
		// NeighborsPerCounty counties, gravity-weighted.
		top := cfg.NeighborsPerCounty
		if top > b.n {
			top = b.n
		}
		for c := 0; c < b.n; c++ {
			idx := b.start + c
			row := []Link{{To: idx, W: cfg.SelfWeight}}
			// Gravity targets: the state's largest counties (excluding
			// self when it is among them).
			var targets []int
			for k := 0; k < top; k++ {
				if b.start+k != idx {
					targets = append(targets, b.start+k)
				}
			}
			inState := cfg.InStateWeight
			hubShare := interState
			if len(targets) == 0 {
				// Single-county state (DC): everything not self goes
				// inter-state from the hub.
				row[0].W += inState
				inState = 0
			} else {
				popSum := 0.0
				for _, tgt := range targets {
					popSum += m.Counties[tgt].Pop
				}
				for _, tgt := range targets {
					row = append(row, Link{To: tgt, W: inState * m.Counties[tgt].Pop / popSum})
				}
			}
			if idx == b.hub {
				// Hub: inter-state share to the other states' hubs,
				// population-weighted.
				popSum := 0.0
				for bj, ob := range blocks {
					if bj != bi {
						popSum += m.Counties[ob.hub].Pop
					}
				}
				for bj, ob := range blocks {
					if bj == bi {
						continue
					}
					row = append(row, Link{To: ob.hub, W: hubShare * m.Counties[ob.hub].Pop / popSum})
				}
			} else {
				// Non-hub: inter-state share routed via own hub.
				merged := false
				for i := range row {
					if row[i].To == b.hub {
						row[i].W += hubShare
						merged = true
						break
					}
				}
				if !merged {
					row = append(row, Link{To: b.hub, W: hubShare})
				}
			}
			links[idx] = row
		}
	}
	if err := m.SetSparseLinks(links); err != nil {
		return nil, err
	}
	return m, nil
}
