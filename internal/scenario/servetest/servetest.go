// Package servetest holds the leak check the serving tier's tests share. It
// does not import scenario, so scenario's own in-package tests can use it.
package servetest

import (
	"runtime"
	"testing"
	"time"
)

// AssertQuiesced fails t unless a drained service has let go of everything:
// svc.Quiesced() reports no job or queue residue, and the goroutine
// count is back to goroutinesBefore — runtime.NumGoroutine() read before the
// service was constructed — within a short poll. Call it after Drain, and
// after the test's own HTTP servers and clients are closed.
func AssertQuiesced(t testing.TB, svc interface{ Quiesced() error }, goroutinesBefore int) {
	t.Helper()
	if err := svc.Quiesced(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after drain, %d before the service existed:\n%s",
				runtime.NumGoroutine(), goroutinesBefore, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
