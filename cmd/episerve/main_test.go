package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// serve starts run on a free loopback port and waits until /readyz reports
// every worker up. It returns the base URL and a stop function that
// cancels run's context and returns run's result once the drain finishes.
func serve(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		runErr = run(ctx, append([]string{"-addr", addr}, args...), nil)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	stop := func() error {
		cancel()
		select {
		case <-done:
			return runErr
		case <-time.After(time.Minute):
			t.Fatal("run did not return within a minute of cancel")
			return nil
		}
	}

	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		var r scenario.Readiness
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
		}
		if err == nil && r.WorkersSet > 0 && r.WorkersUp == r.WorkersSet {
			return base, stop
		}
		select {
		case <-done:
			t.Fatalf("run returned before it was ready: %v", runErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported every worker up (last: %+v, %v)", r, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunBenchFlags starts episerve with the flag set the serve-cold
// benchmark workload passes, waits until every worker is up, and requires a
// cancel to drain it and return nil.
func TestRunBenchFlags(t *testing.T) {
	_, stop := serve(t, "-replicas", "1", "-workers", "2", "-shards", "1", "-scale", "250",
		"-queue", "64", "-recorder", "0", "-seed", "2020")
	if err := stop(); err != nil {
		t.Fatalf("run = %v, want nil after the drain", err)
	}
}

// TestRunRequestJournal submits one small prediction without waiting for
// it and cancels at once, so the job finishes during the drain. The request
// journal is closed only after the drain: once run returns, the file must
// be closed, end in a complete JSON line, and hold the job's own span,
// which closes when the job does.
func TestRunRequestJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "requests.jsonl")
	base, stop := serve(t, "-workers", "1", "-shards", "1", "-scale", "250",
		"-recorder", "64", "-request-journal", path)
	spec := `{"workflow":"prediction","state":"RI","days":60,"replicates":2,` +
		`"configs":[{"tau":0.2,"symp":0.6,"sh_compliance":0.4,"vhi_compliance":0.4}]}`
	resp, err := http.Post(base+"/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("run = %v, want nil after the drain", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("journal does not end in a newline: %q", data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if last := lines[len(lines)-1]; !json.Valid(last) {
		t.Fatalf("last journal line is not JSON: %q", last)
	}
	if !bytes.Contains(data, []byte(`"name":"job.run"`)) {
		t.Fatalf("journal lacks the job.run span the drain closes:\n%s", data)
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
				t.Fatalf("journal %s is still open as fd %s", path, fd.Name())
			}
		}
	}
}
