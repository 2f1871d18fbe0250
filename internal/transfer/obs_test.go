package transfer

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Snapshot must aggregate the ledger's records by direction and flag
// transfers that overran the configured window; RegisterMetrics must render
// exactly those numbers in the Prometheus exposition.
func TestSnapshotAndRegisteredMetrics(t *testing.T) {
	l := NewLedger(DefaultLink())
	if _, err := l.Move(context.Background(), 0, HomeToRemote, "configs", 500*MB); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Move(context.Background(), 0, RemoteToHome, "summaries", 2*GB); err != nil {
		t.Fatal(err)
	}
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 1, Factor: 2}
	fault := func(attempt int) (bool, float64) { return attempt == 0, 0 }
	if _, retries, err := l.MoveWithRetry(context.Background(), 1, HomeToRemote, "configs", 300*MB, pol, fault); err != nil {
		t.Fatal(err)
	} else if retries != 1 {
		t.Fatalf("retries %d want 1", retries)
	}

	s := l.Snapshot()
	if s.Transfers != 3 {
		t.Fatalf("transfers %d want 3", s.Transfers)
	}
	if s.BytesHomeToRemote != 800*MB || s.BytesRemoteToHome != 2*GB {
		t.Fatalf("bytes %d/%d want %d/%d", s.BytesHomeToRemote, s.BytesRemoteToHome, 800*MB, 2*GB)
	}
	if s.Retries != 1 {
		t.Fatalf("retries %d want 1", s.Retries)
	}
	if s.Seconds != l.TotalSeconds() {
		t.Fatalf("seconds %v want %v", s.Seconds, l.TotalSeconds())
	}
	if s.WindowViolations != 0 {
		t.Fatalf("window violations %d with no window configured", s.WindowViolations)
	}

	// A window tighter than any transfer flags all of them.
	l.WindowSeconds = 1e-9
	if v := l.Snapshot().WindowViolations; v != 3 {
		t.Fatalf("window violations %d want 3", v)
	}
	l.WindowSeconds = 0

	reg := obs.NewRegistry()
	RegisterMetrics(reg, l)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`epi_transfer_bytes_total{direction="home_to_remote"} 838860800`,
		`epi_transfer_bytes_total{direction="remote_to_home"} 2147483648`,
		"epi_transfer_count_total 3",
		"epi_transfer_retries_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
}

// A traced ledger must book the same records as an untraced one while
// emitting one transfer span per move, a transfer.retried event per stalled
// attempt and a transfer.bytes event per completed move.
func TestTracedMoveMatchesUntraced(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 1, Factor: 2}
	stall := func(attempt int) (bool, float64) { return attempt < 2, 0 }
	moves := func(ctx context.Context) *Ledger {
		l := NewLedger(DefaultLink())
		if _, err := l.Move(ctx, 0, HomeToRemote, "configs", 500*MB); err != nil {
			t.Fatal(err)
		}
		if _, retries, err := l.MoveWithRetry(ctx, 1, RemoteToHome, "summaries", GB, pol, stall); err != nil {
			t.Fatal(err)
		} else if retries != 2 {
			t.Fatalf("retries %d want 2", retries)
		}
		return l
	}
	plain := moves(context.Background())

	col := obs.NewCollector(nil)
	tr := obs.NewTracer(col, obs.WithClock(obs.FixedClock(time.Unix(0, 0), time.Millisecond)))
	traced := moves(obs.WithTracer(context.Background(), tr))
	if !reflect.DeepEqual(plain.Records, traced.Records) {
		t.Fatalf("traced records %+v diverge from %+v", traced.Records, plain.Records)
	}

	spans, retried, moved := 0, 0, 0
	for _, e := range col.Entries() {
		switch {
		case e.Type == obs.EntrySpan && e.Name == "transfer":
			spans++
		case e.Type == obs.EntryEvent && e.Name == "transfer.retried":
			retried++
		case e.Type == obs.EntryEvent && e.Name == "transfer.bytes":
			moved++
		}
	}
	if spans != 2 || retried != 2 || moved != 2 {
		t.Fatalf("spans %d retried %d moved %d, want 2/2/2", spans, retried, moved)
	}
}
