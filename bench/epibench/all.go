package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostStamp records where and on what a result document was measured.
type hostStamp struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	OS         string  `json:"os"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	WallS      float64 `json:"wall_s"`
}

// runDoc is one child run: its info and result lines.
type runDoc struct {
	info
	result
}

// workloadDoc is everything measured on one workload.
type workloadDoc struct {
	Workload string   `json:"workload"`
	EndToEnd []runDoc `json:"end_to_end"`
	PerLayer *runDoc  `json:"per_layer,omitempty"`
}

type document struct {
	Host      hostStamp     `json:"host"`
	Workloads []workloadDoc `json:"workloads"`
}

// benchmarkJSON is the part of BENCHMARK.json the self-check reads: the
// bounds live there and nowhere else.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkJSON(root string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// runChild runs one workload in a fresh process of this binary, so heap
// state, peak RSS and CPU time are that workload's alone, and parses the two
// lines it ends with.
func runChild(ctx context.Context, name string, seed uint64, seconds float64, traced bool) (*runDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	// On cancellation the child gets SIGTERM, not SIGKILL, so that it can
	// stop its own episerve child.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 2 * killDeadline
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	var doc runDoc
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &doc.info); err != nil {
		return nil, fmt.Errorf("%s: info line: %v (%v)", name, err, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %v (%v)", name, err, runErr)
	}
	return &doc, runErr
}

// quartiles are Python's statistics.quantiles(values, n=4): the exclusive
// method, which the acceptance rule for this benchmark is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the run-to-run spread of a metric as a share of its median: the
// distance between the quartiles when there are runs enough to have them,
// the full range otherwise.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		s := sortedCopy(v)
		return (s[len(s)-1] - s[0]) / med
	}
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / med
}

// runAll runs every workload, each end-to-end pass in its own child
// process, prints the tables and, with repeat > 1, holds every end-to-end
// metric's spread to its bound.
func runAll(ctx context.Context, root string, seed uint64, seconds float64, traced bool, repeat int, out string) int {
	started := time.Now()
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "epibench:", err)
		return 1
	}
	doc := document{Host: stampHost(root, seed, seconds)}
	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "epibench:", err)
		code = 1
	}
	for _, w := range workloads(seed) {
		wd := workloadDoc{Workload: w.name}
		for r := 0; r < repeat && ctx.Err() == nil; r++ {
			run, err := runChild(ctx, w.name, seed+uint64(r), seconds, false)
			if err != nil {
				fail(err)
			}
			if run != nil {
				wd.EndToEnd = append(wd.EndToEnd, *run)
			}
		}
		if traced && ctx.Err() == nil {
			run, err := runChild(ctx, w.name, seed, seconds, true)
			if err != nil {
				fail(err)
			}
			wd.PerLayer = run
		}
		doc.Workloads = append(doc.Workloads, wd)
		if !printWorkload(wd, bj) {
			code = 1
		}
	}
	doc.Host.WallS = time.Since(started).Seconds()
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, %s %s, commit %s, seed %d, %.1f s\n",
		doc.Host.NumCPU, doc.Host.GOMAXPROCS, doc.Host.GoVersion, doc.Host.OS, doc.Host.Kernel,
		doc.Host.Commit, seed, doc.Host.WallS)
	if out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	if ctx.Err() != nil {
		return 1
	}
	return code
}

// printWorkload prints one workload's tables and reports whether every
// end-to-end spread stayed within its bound. setup_s is printed but not
// held: it is gated on its median only.
func printWorkload(wd workloadDoc, bj *benchmarkJSON) bool {
	ok := true
	fmt.Printf("\n== %s ==\n", wd.Workload)
	for _, r := range wd.EndToEnd {
		fmt.Printf("seed %d: samples %d attempted %d failed %d digest %.16s (%d ops)\n",
			r.Seed, r.Samples, r.Attempted, r.Failed, r.ResultDigest, r.DigestOps)
	}
	if len(wd.EndToEnd) > 0 {
		fmt.Printf("%-28s %-6s %12s %12s %12s %8s %6s\n", "end-to-end", "unit", "min", "median", "max", "spread", "bound")
	}
	for _, d := range bj.EndToEnd {
		var v []float64
		for _, r := range wd.EndToEnd {
			v = append(v, r.Metrics[d.Name].Value)
		}
		if len(v) == 0 {
			continue
		}
		s, sp := sortedCopy(v), spread(v)
		mark := ""
		if len(v) > 1 && sp > d.Bound && d.Name != "setup_s" {
			mark, ok = "  <-- spread exceeds bound", false
		}
		fmt.Printf("%-28s %-6s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
			d.Name, d.Unit, s[0], median(v), s[len(s)-1], 100*sp, 100*d.Bound, mark)
	}
	if wd.PerLayer != nil {
		fmt.Printf("%-28s %-6s %12s   (traced run: attempted %d failed %d)\n", "per-layer", "unit", "value",
			wd.PerLayer.Attempted, wd.PerLayer.Failed)
		for _, d := range bj.PerLayer {
			fmt.Printf("%-28s %-6s %12.4f\n", d.Name, d.Unit, wd.PerLayer.Metrics[d.Name].Value)
		}
	}
	return ok
}

func stampHost(root string, seed uint64, seconds float64) hostStamp {
	h := hostStamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", Kernel: "unknown", Seed: seed, RunSeconds: seconds}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
