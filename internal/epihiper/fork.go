package epihiper

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"unsafe"
)

// Fork returns an independent copy of a sim stopped at a day boundary that
// runs on under cfg's interventions, recorder and metrics: Snapshot +
// NewFromSnapshot in process, with nothing encoded. Network, model, horizon,
// seed and seeding stay the sim's; a zero cfg field keeps them, another
// value is refused, since the copied tables were computed under them. A
// positive Parallelism other than the sim's repartitions the copy; at any
// shard count the copy's shards take their progression calendars from
// switchTick as a restore does, and results are the same. Intervention state crosses
// by name, as in SwapInterventions. Fork only reads s, so many goroutines
// may fork one sim that nothing runs. Like Snapshot, it refuses a pending
// Schedule closure.
func (s *Sim) Fork(cfg Config) (*Sim, error) {
	switch {
	case cfg.Network != nil && cfg.Network != s.net:
		return nil, fmt.Errorf("epihiper: fork onto a different network")
	case cfg.Model != nil && cfg.Model != s.model && !reflect.DeepEqual(*cfg.Model, *s.model):
		return nil, fmt.Errorf("epihiper: fork under a different disease model")
	case cfg.Days != 0 && cfg.Days != s.cfg.Days, cfg.Seed != 0 && cfg.Seed != s.cfg.Seed:
		return nil, fmt.Errorf("epihiper: fork changes the horizon or seed")
	}
	for _, a := range s.scheduled {
		if a.kind == opOpaque {
			return nil, fmt.Errorf("epihiper: cannot fork with a pending opaque scheduled action (day %d)", a.day)
		}
	}
	f := *s
	f.cfg.Interventions, f.cfg.Recorder, f.cfg.Metrics = cfg.Interventions, cfg.Recorder, cfg.Metrics
	f.health, f.nextState, f.switchTick = slices.Clone(s.health), slices.Clone(s.nextState), slices.Clone(s.switchTick)
	f.infectivityScale, f.susceptibilityScale = slices.Clone(s.infectivityScale), slices.Clone(s.susceptibilityScale)
	f.ctxMask, f.isolatedUntil, f.effMaskT = slices.Clone(s.ctxMask), slices.Clone(s.isolatedUntil), slices.Clone(s.effMaskT)
	f.effInf, f.infNbr = slices.Clone(s.effInf), slices.Clone(s.infNbr)
	f.effInfBits, f.riskBits, f.susBits = slices.Clone(s.effInfBits), slices.Clone(s.riskBits), slices.Clone(s.susBits)
	f.homeOnly, f.homeRisk, f.homeNbr = slices.Clone(s.homeOnly), slices.Clone(s.homeRisk), slices.Clone(s.homeNbr)
	f.isolExpiry = cloneRows(s.isolExpiry)
	f.serial = shard{last: s.serial.last}
	if cfg.Parallelism > 0 && cfg.Parallelism != s.cfg.Parallelism {
		f.cfg.Parallelism = cfg.Parallelism
		f.parts = s.net.PartitionNodesAligned(cfg.Parallelism, s.cfg.PartitionTolerance, shardAlign)
	}
	f.buildShards()
	f.fillCalendars()
	rng := *s.ivRNG
	f.ivRNG = &rng
	f.Vars = maps.Clone(s.Vars)
	f.nodeTraits = maps.Clone(s.nodeTraits)
	for k, v := range f.nodeTraits {
		f.nodeTraits[k] = slices.Clone(v)
	}
	f.scheduled, f.todayEvents, f.memTrace = slices.Clone(s.scheduled), slices.Clone(s.todayEvents), slices.Clone(s.memTrace)
	f.handOver(s.cfg.Interventions)
	return &f, nil
}

// cloneRows deep-copies a table of rows; nil rows stay nil.
func cloneRows[T any](rows [][]T) [][]T {
	out := make([][]T, len(rows))
	for i, r := range rows {
		out[i] = slices.Clone(r)
	}
	return out
}

// RetainedBytes is what keeping the sim costs: the heap it holds apart from
// the network and model it shares, its interventions' state included.
func (s *Sim) RetainedBytes() int64 {
	b := int64(unsafe.Sizeof(*s)) + int64(cap(s.shards))*int64(unsafe.Sizeof(shard{})) +
		capBytes(s.health) + capBytes(s.nextState) + capBytes(s.switchTick) + capBytes(s.infectivityScale) +
		capBytes(s.susceptibilityScale) + capBytes(s.ctxMask) + capBytes(s.isolatedUntil) + capBytes(s.effInf) +
		capBytes(s.effMaskT) + capBytes(s.infNbr) + capBytes(s.effInfBits) + capBytes(s.riskBits) + capBytes(s.susBits) +
		capBytes(s.homeOnly) + capBytes(s.homeRisk) + capBytes(s.homeNbr) +
		capBytes(s.todayEvents) + capBytes(s.memTrace) + capBytes(s.scheduled) + rowBytes(s.isolExpiry) +
		capBytes(s.shardStarts) + capBytes(s.ownerWord)
	for i := range s.shards {
		b += rowBytes(s.shards[i].calendar) + capBytes(s.shards[i].outbox)
	}
	for _, t := range s.nodeTraits {
		b += capBytes(t)
	}
	for _, iv := range s.cfg.Interventions {
		if st, ok := iv.(InterventionState); ok {
			b += stateBytes(st)
		}
	}
	return b
}

// stateBytes is len(st.EncodeState()), computed from the state of the
// package's stateful interventions without encoding it.
func stateBytes(st InterventionState) int64 {
	switch iv := st.(type) {
	case *StayAtHome:
		return 4 + 4*int64(len(iv.compliant))
	case *PulsingShutdown:
		return 4 + 4*int64(len(iv.compliant)) + 1
	case *WeekendSchedule:
		return 1
	}
	return int64(len(st.EncodeState()))
}

// capBytes is the heap behind a slice, and rowBytes behind a table of rows.
func capBytes[T any](v []T) int64 { return int64(cap(v)) * int64(unsafe.Sizeof(*new(T))) }

func rowBytes[T any](rows [][]T) int64 {
	b := capBytes(rows)
	for _, r := range rows {
		b += capBytes(r)
	}
	return b
}
