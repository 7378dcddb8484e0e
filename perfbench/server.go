package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned datacelld process.
type server struct {
	cmd         *exec.Cmd
	addr        string // wire protocol address
	metricsAddr string
	// lines is closed once the daemon's stdout has been read to EOF.
	lines chan struct{}
}

// startServer spawns datacelld listening on loopback ports chosen by the
// kernel and waits until it reports both addresses. dataDir, when set,
// makes the instance durable with the given per-stream RAM budget.
func startServer(bin string, procs int, dataDir string, ramBudget int64) (*server, error) {
	args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-ram-budget", strconv.FormatInt(ramBudget, 10))
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, lines: make(chan struct{})}
	addrs := make(chan error, 1)
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(out)
		reported := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "datacelld: serving on "); ok {
				s.addr = a
			}
			if a, ok := strings.CutPrefix(line, "datacelld: metrics on http://"); ok {
				s.metricsAddr = strings.TrimSuffix(a, "/metrics")
			}
			if !reported && s.addr != "" && s.metricsAddr != "" {
				reported = true
				addrs <- nil
			}
		}
		if !reported {
			addrs <- errors.New("datacelld exited before reporting its addresses")
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case err = <-addrs:
	case <-time.After(30 * time.Second):
		err = errors.New("datacelld did not report its addresses within 30s")
	}
	if err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it when the drain outlasts the bound.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-s.lines
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("datacelld did not drain within 20s")
	}
}

// kill ends the daemon without a drain and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.lines
	_ = s.cmd.Wait()
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ).
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is one parsed /metrics exposition: series (name plus labels, as
// printed) to value.
type scrape map[string]float64

// scrapeMetrics fetches and parses the daemon's /metrics page.
func (s *server) scrapeMetrics(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.metricsAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose labels contain all of want
// (each a `key="value"` string).
func (m scrape) sum(name string, want ...string) float64 {
	var t float64
	for series, v := range m {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}
