package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir     = ".bench_build" // inside the checkout; ignored by git
	readyTimeout = 30 * time.Second
	killDeadline = 10 * time.Second
)

// repoRoot returns the nearest directory at or above the working directory
// that holds cmd/episerve, so the benchmark runs from the repository root
// (bash bench/run.sh) and from bench/ (go run ./epibench) alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "episerve")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/episerve at or above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildEpiserve compiles the program under test into the build directory.
// Build time is outside every metric.
func buildEpiserve(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "episerve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/episerve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/episerve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one episerve child process, reached only through its operator
// surface: flags, HTTP, /metrics and signals.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr *bytes.Buffer
	exited chan struct{} // closed once cmd.Wait returned
	// waitErr is the child's Wait error; read after exited is closed.
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts episerve on a free loopback port with the given flags
// and waits until its workers are up. conns caps the HTTP connections the
// load generator may hold.
func startServer(ctx context.Context, bin string, conns int, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		base:   "http://" + addr,
		stderr: &bytes.Buffer{},
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	// Not CommandContext: cancellation must drain the child with SIGTERM
	// (stop), not SIGKILL it.
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx, false); err != nil {
		stopErr := s.stop()
		return nil, fmt.Errorf("episerve %v not ready: %w (stop: %v)\n--- episerve stderr ---\n%s",
			args, err, stopErr, s.stderr.String())
	}
	return s, nil
}

// readiness is the part of the /readyz body the benchmark reads. The body
// carries it on 200 and on 503 alike.
type readiness struct {
	Ready      bool `json:"ready"`
	WorkersUp  int  `json:"workers_up"`
	WorkersSet int  `json:"workers_configured"`
	Draining   bool `json:"draining"`
}

// waitReady polls /readyz until the workers are up and, with fitted, until
// the service reports itself ready, which under the fidelity ladder means a
// family has a fitted emulator.
func (s *server) waitReady(ctx context.Context, fitted bool) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	var last error
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("episerve exited: %v", s.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %v)", ctx.Err(), last)
		default:
		}
		var r readiness
		_, body, err := s.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil {
			err = json.Unmarshal(body, &r)
		}
		last = err
		if err == nil && r.WorkersSet > 0 && r.WorkersUp >= r.WorkersSet && !r.Draining && (r.Ready || !fitted) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// do sends one request and reads the whole reply.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop drains the child with SIGTERM, kills it after killDeadline, and
// returns once it has exited. It is safe to call twice.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(killDeadline):
		_ = s.cmd.Process.Kill() // the child ignored SIGTERM; Wait below reports it
		<-s.exited
		return fmt.Errorf("episerve did not drain within %v and was killed", killDeadline)
	}
}

// peakRSSMB is the child's ru_maxrss; valid after stop.
func (s *server) peakRSSMB() float64 {
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime reads the child's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name in field 2 may hold spaces.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat line %q", stat)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU is the benchmark process's own user+system CPU time, for the
// workloads that run the program's packages in-process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// scrape fetches /metrics and parses the Prometheus text leniently: a line
// it cannot read is skipped, and a series that is absent is simply absent
// from the map, never an error.
func (s *server) scrape(ctx context.Context) map[string]float64 {
	_, body, err := s.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return map[string]float64{}
	}
	return parsePromText(bytes.NewReader(body))
}

// parsePromText maps each series, spelled as on the wire with its labels,
// to its value.
func parsePromText(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, '}')
		sp := strings.IndexByte(line[cut+1:], ' ')
		if sp < 0 {
			continue
		}
		name := strings.TrimSpace(line[:cut+1+sp])
		fields := strings.Fields(line[cut+1+sp:])
		if name == "" || len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}
