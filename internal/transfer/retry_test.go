package transfer

import (
	"context"
	"math"
	"testing"
)

func TestDurationRejectsBadLinks(t *testing.T) {
	bad := []Link{
		{BandwidthBytesPerSec: 0, LatencySec: 1},
		{BandwidthBytesPerSec: -5, LatencySec: 1},
		{BandwidthBytesPerSec: math.Inf(1), LatencySec: 1},
		{BandwidthBytesPerSec: math.NaN(), LatencySec: 1},
		{BandwidthBytesPerSec: 100, LatencySec: -1},
		{BandwidthBytesPerSec: 100, LatencySec: math.Inf(1)},
		{BandwidthBytesPerSec: 100, LatencySec: math.NaN()},
	}
	for _, l := range bad {
		if d, err := l.Duration(MB); err == nil {
			t.Errorf("link %+v accepted (duration %v)", l, d)
		}
	}
}

// A zero-bandwidth link must surface an error from Move, not an infinite
// duration that poisons downstream sums.
func TestMoveRejectsBadLinkWithoutRecording(t *testing.T) {
	l := NewLedger(Link{BandwidthBytesPerSec: 0, LatencySec: 30})
	if _, err := l.Move(context.Background(), 0, HomeToRemote, "configs", GB); err == nil {
		t.Fatal("zero-bandwidth Move succeeded")
	}
	if _, _, err := l.MoveWithRetry(context.Background(), 0, HomeToRemote, "configs", GB, RetryPolicy{}, nil); err == nil {
		t.Fatal("zero-bandwidth MoveWithRetry succeeded")
	}
	if len(l.Records) != 0 {
		t.Fatalf("failed moves recorded: %+v", l.Records)
	}
	if s := l.TotalSeconds(); math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("non-finite total seconds %v leaked", s)
	}
}

func TestMoveWithRetrySucceedsAfterStalls(t *testing.T) {
	link := Link{BandwidthBytesPerSec: 100, LatencySec: 10}
	l := NewLedger(link)
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 60, Factor: 2}
	stallFirst := func(n int) func(int) (bool, float64) {
		return func(attempt int) (bool, float64) { return attempt < n, 0 }
	}
	elapsed, retries, err := l.MoveWithRetry(context.Background(), 3, RemoteToHome, "summaries", 1000, pol, stallFirst(2))
	if err != nil {
		t.Fatal(err)
	}
	if retries != 2 {
		t.Fatalf("retries %d want 2", retries)
	}
	// Two stalls: (10+60) + (10+120), then the real transfer 10 + 1000/100.
	want := 70.0 + 130 + 20
	if elapsed != want {
		t.Fatalf("elapsed %g want %g", elapsed, want)
	}
	if len(l.Records) != 1 {
		t.Fatalf("want one record, got %d", len(l.Records))
	}
	r := l.Records[0]
	if r.Retries != 2 || r.Seconds != want || r.Day != 3 || r.Label != "summaries" {
		t.Fatalf("record wrong: %+v", r)
	}
}

func TestMoveWithRetryExhaustsBudget(t *testing.T) {
	l := NewLedger(Link{BandwidthBytesPerSec: 100, LatencySec: 10})
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: 1, Factor: 2}
	alwaysStall := func(int) (bool, float64) { return true, 0 }
	elapsed, retries, err := l.MoveWithRetry(context.Background(), 0, HomeToRemote, "configs", 1000, pol, alwaysStall)
	if err == nil {
		t.Fatal("all-stalled transfer succeeded")
	}
	if retries != 3 {
		t.Fatalf("retries %d want 3", retries)
	}
	// Three stalled attempts: (10+1) + (10+2) + (10+4).
	if elapsed != 37 {
		t.Fatalf("elapsed %g want 37", elapsed)
	}
	if len(l.Records) != 0 {
		t.Fatal("failed transfer was recorded")
	}
}

func TestMoveWithRetryNilFaultMatchesMove(t *testing.T) {
	a, b := NewLedger(DefaultLink()), NewLedger(DefaultLink())
	d1, err := a.Move(context.Background(), 0, HomeToRemote, "x", MB)
	if err != nil {
		t.Fatal(err)
	}
	d2, retries, err := b.MoveWithRetry(context.Background(), 0, HomeToRemote, "x", MB, RetryPolicy{}, nil)
	if err != nil || retries != 0 {
		t.Fatalf("nil-fault retry: %v retries %d", err, retries)
	}
	if d1 != d2 {
		t.Fatalf("durations diverge: %g vs %g", d1, d2)
	}
}

func TestBackoffGrowthAndJitter(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 5, BaseBackoff: 60, Factor: 2}
	for i, want := range []float64{60, 120, 240} {
		if got := pol.Backoff(i, 0); got != want {
			t.Errorf("backoff(%d) = %g want %g", i, got, want)
		}
	}
	if got := pol.Backoff(0, 0.5); got != 90 {
		t.Errorf("jittered backoff %g want 90", got)
	}
	// Zero policy falls back to defaults rather than never backing off.
	if got := (RetryPolicy{}).Backoff(0, 0); got != 60 {
		t.Errorf("default backoff %g want 60", got)
	}
}
