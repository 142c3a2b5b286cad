package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one dperfd child process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// startServer spawns dperfd over storeDir and returns once it listens.
// dperfd admits every artifact already in storeDir before it listens,
// so the return time includes store re-admission.
func startServer(bin, storeDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark, however the benchmark
	// ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dperfd: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
		// stop decides how the process ends, so its exit status says
		// nothing a failed request has not already reported.
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case line, ok := <-lines:
		// "dperfd: listening on 127.0.0.1:PORT (N trace sets)"
		f := strings.Fields(line)
		if !ok || len(f) < 4 || f[1] != "listening" {
			s.stop()
			return nil, fmt.Errorf("dperfd did not start: %q", line)
		}
		s.addr = f[3]
	case <-time.After(150 * time.Second):
		s.stop()
		return nil, fmt.Errorf("dperfd did not listen within 150s")
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks dperfd to drain and exit, killing it if it does not, and
// returns once the process has been reaped.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// procCPU returns the user+system CPU time the process has used, from
// /proc/<pid>/stat (all threads, in USER_HZ ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procHWM returns the process's peak resident set size (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// client drives dperfd over one keep-alive connection; every request
// waits for the previous reply.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and returns the response bytes, valid until
// the next call. A transport error or a non-2xx status is an error.
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return c.read(path, resp)
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	return c.read(path, resp)
}

func (c *client) read(path string, resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(c.buf.String()))
	}
	return c.buf.Bytes(), nil
}

// serverStats mirrors dperfd's /v1/stats counters.
type serverStats struct {
	TraceSets     int   `json:"trace_sets"`
	ResultEntries int   `json:"result_cache_entries"`
	ResultHits    int64 `json:"result_cache_hits"`
	ResultMisses  int64 `json:"result_cache_misses"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	body, err := c.get("/v1/stats")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(body, &st)
	return st, err
}
