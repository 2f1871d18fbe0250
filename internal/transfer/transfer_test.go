package transfer

import (
	"context"
	"strings"
	"testing"
)

func TestDuration(t *testing.T) {
	l := Link{BandwidthBytesPerSec: 100, LatencySec: 5}
	d, err := l.Duration(1000)
	if err != nil || d != 15 {
		t.Fatalf("duration %v, %v want 15", d, err)
	}
	if _, err := l.Duration(-1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := (Link{}).Duration(10); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger(DefaultLink())
	if _, err := l.Move(context.Background(), 0, HomeToRemote, "configs", 500*MB); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Move(context.Background(), 0, RemoteToHome, "summaries", 2*GB); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Move(context.Background(), 1, HomeToRemote, "configs", 300*MB); err != nil {
		t.Fatal(err)
	}
	if got := l.TotalBytes(HomeToRemote); got != 800*MB {
		t.Fatalf("outbound %d want %d", got, 800*MB)
	}
	if got := l.TotalBytes(RemoteToHome); got != 2*GB {
		t.Fatalf("inbound %d want %d", got, 2*GB)
	}
	if l.TotalSeconds() <= 0 {
		t.Fatal("zero transfer time")
	}
	by := l.ByLabel()
	if len(by) != 2 || by[0].Label != "configs" || by[0].Bytes != 800*MB {
		t.Fatalf("by-label wrong: %+v", by)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:          "512B",
		2 * KB:       "2.0KB",
		100 * MB:     "100.0MB",
		87 * GB / 10: "8.7GB",
		2 * TB:       "2.0TB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q want %q", n, got, want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if !strings.Contains(HomeToRemote.String(), "remote") || !strings.Contains(RemoteToHome.String(), "home") {
		t.Fatal("direction strings wrong")
	}
}

// Table II plausibility: the one-time 2 TB staging takes hours on the
// default link, while a daily 8.7 GB config push takes about a minute.
func TestTableIITransferTimes(t *testing.T) {
	link := DefaultLink()
	staging, err := link.Duration(2 * TB)
	if err != nil {
		t.Fatal(err)
	}
	if staging < 3600 || staging > 24*3600 {
		t.Fatalf("2TB staging takes %v s — expected hours", staging)
	}
	configs, _ := link.Duration(87 * GB / 10)
	if configs > 300 {
		t.Fatalf("8.7GB configs take %v s — expected under 5 minutes", configs)
	}
	summaries, _ := link.Duration(70 * GB)
	if summaries > 3600 {
		t.Fatalf("70GB summaries take %v s — expected under an hour", summaries)
	}
}

func TestMoveError(t *testing.T) {
	l := NewLedger(Link{BandwidthBytesPerSec: 0})
	if _, err := l.Move(context.Background(), 0, HomeToRemote, "x", 10); err == nil {
		t.Fatal("zero-bandwidth move accepted")
	}
	if len(l.Records) != 0 {
		t.Fatal("failed move recorded")
	}
}
