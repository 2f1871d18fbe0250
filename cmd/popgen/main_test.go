package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestRunPinned holds popgen's size summary at its defaults (Virginia at
// 1:10000) byte for byte, and checks that -out writes every artifact of
// the binary format. Re-record with `go run ./cmd/popgen`.
func TestRunPinned(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-format", "binary", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if want := wantDefault + "wrote artifacts under " + dir + "\n"; out.String() != want {
		t.Errorf("stdout differs from the pin\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
	for _, name := range []string{"network.bin", "partitions.bin", "popdb.snapshot"} {
		if fi, err := os.Stat(filepath.Join(dir, "VA", name)); err != nil || fi.Size() == 0 {
			t.Errorf("VA/%s: %v (size %v)", name, err, fi)
		}
	}
}

const wantDefault = `state     persons        edges   degree person-file  edge-file
VA            853         9914     23.2     40.0KB    426.0KB

total: 853 persons, 9914 edges, 225.5KB in memory, 23.3 bytes per edge (scale 1:10000 → 8530000 persons, 99140000 edges at 1:1)
`
