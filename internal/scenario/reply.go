package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// replyWriter appends a Result's reply without reflection: byte for byte
// what json.MarshalIndent(v, "", "  ") writes. Keys follow declaration
// order, omitempty is decided field by field, and nil slices are null.
type replyWriter struct {
	b     []byte
	depth int
	more  bool // the innermost open container holds an element
	err   error
}

// appendResult appends r's reply body — its indented JSON and a newline —
// to b. It fails on a NaN or an infinity, which JSON cannot carry.
func appendResult(b []byte, r *Result) ([]byte, error) {
	w := &replyWriter{b: append(b, '{'), depth: 1}
	w.str("hash", r.Hash, false)
	w.str("workflow", r.Workflow, false)
	s := &r.Spec
	w.open("spec", '{')
	w.str("workflow", s.Workflow, false)
	w.str("state", s.State, true)
	w.int("days", int64(s.Days), true)
	w.int("replicates", int64(s.Replicates), true)
	w.int("sh_start", int64(s.SHStart), true)
	w.int("sh_end", int64(s.SHEnd), true)
	if len(s.Configs) > 0 {
		w.open("configs", '[')
		for _, c := range s.Configs {
			w.open("", '{')
			w.float("tau", c.TAU, false)
			w.float("symp", c.SYMP, false)
			w.float("sh_compliance", c.SHCompliance, false)
			w.float("vhi_compliance", c.VHICompliance, false)
			w.close('}')
		}
		w.close(']')
	}
	if len(s.WhatIfs) > 0 {
		w.open("whatifs", '[')
		for _, wi := range s.WhatIfs {
			w.open("", '{')
			w.str("name", wi.Name, false)
			w.int("pivot_day", int64(wi.PivotDay), true)
			w.int("sh_end_shift", int64(wi.SHEndShift), true)
			w.float("compliance_scale", wi.ComplianceScale, true)
			w.float("add_testing", wi.AddTesting, true)
			w.int("add_tracing", int64(wi.AddTracing), true)
			w.float("trace_detect_prob", wi.TraceDetectProb, true)
			w.close('}')
		}
		w.close(']')
	}
	if n := s.Night; n != nil {
		w.open("night", '{')
		w.str("family", n.Family, false)
		w.int("cells", int64(n.Cells), true)
		w.int("replicates", int64(n.Replicates), true)
		w.str("heuristic", n.Heuristic, true)
		if n.Seed != 0 {
			w.key("seed")
			w.b = strconv.AppendUint(w.b, n.Seed, 10)
		}
		w.close('}')
	}
	w.str("fidelity", s.Fidelity, true)
	w.float("max_uncertainty", s.MaxUncertainty, true)
	w.int("shards", int64(s.Shards), true)
	w.close('}')
	if p := r.Prediction; p != nil {
		w.open("prediction", '{')
		w.band("confirmed", &p.Confirmed)
		w.band("hospitalized", &p.Hospitalized)
		w.band("deaths", &p.Deaths)
		w.int("counties", int64(p.Counties), false)
		w.close('}')
	}
	if len(r.Scenarios) > 0 {
		w.open("scenarios", '[')
		for k := range r.Scenarios {
			sc := &r.Scenarios[k]
			w.open("", '{')
			w.str("name", sc.Name, false)
			w.band("confirmed", &sc.Confirmed)
			w.band("deaths", &sc.Deaths)
			w.close('}')
		}
		w.close(']')
	}
	if n := r.Night; n != nil {
		w.open("night", '{')
		w.int("tasks", int64(n.Tasks), false)
		w.int("completed", int64(n.Completed), false)
		w.int("unstarted", int64(n.Unstarted), false)
		w.int("retries", int64(n.Retries), false)
		w.int("shed", int64(n.Shed), false)
		w.float("makespan_seconds", n.Makespan, false)
		w.float("utilization", n.Utilization, false)
		w.key("fits_window")
		w.b = strconv.AppendBool(w.b, n.FitsWindow)
		w.int("config_bytes", n.ConfigBytes, false)
		w.int("summary_bytes", n.SummaryB, false)
		w.int("raw_bytes", n.RawBytes, false)
		w.close('}')
	}
	w.float("elapsed_seconds", r.ElapsedSeconds, false)
	w.str("tier", r.Tier, true)
	w.str("tier_reason", r.TierReason, true)
	w.float("uncertainty", r.Uncertainty, true)
	w.close('}')
	return append(w.b, '\n'), w.err
}

func (w *replyWriter) band(k string, b *core.Forecast) {
	w.open(k, '{')
	for _, s := range [...]struct {
		k string
		v []float64
	}{{"median", b.Median}, {"lo", b.Lo}, {"hi", b.Hi}} {
		if s.v == nil {
			w.key(s.k)
			w.b = append(w.b, "null"...)
			continue
		}
		w.open(s.k, '[')
		for _, f := range s.v {
			w.key("")
			w.num(f)
		}
		w.close(']')
	}
	w.close('}')
}

// open starts a container keyed like key; close ends it, on its own line
// unless it is empty.
func (w *replyWriter) open(k string, c byte) {
	w.key(k)
	w.b = append(w.b, c)
	w.depth++
	w.more = false
}

func (w *replyWriter) close(c byte) {
	w.depth--
	if w.more {
		w.newline()
	}
	w.b = append(w.b, c)
	w.more = true
}

// newline ends a line and indents the next; a reply nests at most 5 deep.
func (w *replyWriter) newline() { w.b = append(w.b, "\n            "[:1+2*w.depth]...) }

// key starts the open container's next element on its own line: a member
// named k, a plain ASCII literal, or an array element when k is empty.
func (w *replyWriter) key(k string) {
	if w.more {
		w.b = append(w.b, ',')
	}
	w.more = true
	w.newline()
	if k != "" {
		w.b = append(append(append(w.b, '"'), k...), `": `...)
	}
}

// str, int and float write a member, or nothing for an omitempty zero.
func (w *replyWriter) str(k, v string, omitEmpty bool) {
	if v != "" || !omitEmpty {
		w.key(k)
		w.b = appendString(w.b, v)
	}
}

func (w *replyWriter) int(k string, v int64, omitEmpty bool) {
	if v != 0 || !omitEmpty {
		w.key(k)
		w.b = strconv.AppendInt(w.b, v, 10)
	}
}

func (w *replyWriter) float(k string, v float64, omitEmpty bool) {
	if v != 0 || !omitEmpty {
		w.key(k)
		w.num(v)
	}
}

// num formats f as encoding/json does: shortest 'f' form, or 'e' below
// 1e-6 and from 1e21 on, with a one-digit negative exponent unpadded.
func (w *replyWriter) num(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.err = fmt.Errorf("json: unsupported value: %v", f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b = append(w.b[:n-2], w.b[n-1])
	}
}

// appendString quotes s: printable ASCII that HTML-safe JSON keeps as is is
// copied, any other string goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	if strings.ContainsFunc(s, func(c rune) bool { return c < 0x20 || c >= 0x7f || strings.ContainsRune(`"\<>&`, c) }) {
		q, _ := json.Marshal(s) // a string always encodes
		return append(b, q...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// replyBufs recycles the buffers fresh replies are written into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}
