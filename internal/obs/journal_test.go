package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	in := []Entry{
		{Type: EntrySpan, Name: "night", Span: 1, StartNS: 10, EndNS: 30, Seconds: 2e-8,
			Attrs: AttrList{Float("day", 1), String("workflow", "Prediction")}},
		{Type: EntryEvent, Name: "task.shed", Span: 1, AtNS: 20,
			Attrs: AttrList{Float("cell", 3), String("region", "VA")}},
		{Type: EntrySpan, Name: "transfer", Span: 2, Parent: 1, StartNS: 12, EndNS: 14, Seconds: 2e-9},
	}
	for _, e := range in {
		j.Emit(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Fatalf("journal has %d lines, want %d", lines, len(in))
	}
	wantJournal(t, buf.Bytes(), in)
}

// wantJournal fails unless journal holds exactly one line per entry, each
// the bytes json.Marshal writes for it.
func wantJournal(t *testing.T, journal []byte, es []Entry) {
	t.Helper()
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(es) {
		t.Fatalf("journal has %d lines, want %d", len(lines), len(es))
	}
	for i, e := range es {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(lines[i], want) {
			t.Fatalf("journal line %d:\n got %s\nwant %s", i, lines[i], want)
		}
	}
}

func TestCollectorTees(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector(NewJournal(&buf))
	col.Emit(Entry{Type: EntryEvent, Name: "x"})
	if len(col.Entries()) != 1 {
		t.Fatal("collector dropped the entry")
	}
	if !strings.Contains(buf.String(), `"name":"x"`) {
		t.Fatal("collector did not forward to the journal")
	}
}

func TestSummarize(t *testing.T) {
	es := []Entry{
		{Type: EntrySpan, Name: "sim", Seconds: 3},
		{Type: EntrySpan, Name: "sim", Seconds: 2},
		{Type: EntrySpan, Name: "transfer", Seconds: 1},
		{Type: EntryEvent, Name: "task.shed"},
		{Type: EntryEvent, Name: "task.shed"},
		{Type: EntryEvent, Name: "fault.injected"},
	}
	sum := Summarize(es)
	if len(sum) != 2 || sum[0].Name != "sim" || sum[0].Count != 2 || sum[0].Seconds != 5 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if sum[1].Name != "transfer" || sum[1].Seconds != 1 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	ev := EventCounts(es)
	if len(ev) != 2 || ev[0].Name != "fault.injected" || ev[0].Count != 1 || ev[1].Count != 2 {
		t.Fatalf("event counts wrong: %+v", ev)
	}
}
