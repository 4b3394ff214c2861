package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// daemon is one replicaserved process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon runs bin with a WAL-backed data directory and waits until
// it announces its listen address.
func startDaemon(bin, dataDir string, workers, conns int) (*daemon, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-norestore",
		"-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "replicaserved listening on "); ok {
				addr <- a
			}
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, errors.New("daemon exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("daemon did not announce its address within 30s")
	}
	d.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return d, nil
}

// kill stops the daemon at once and waits for it. It is safe to call
// after the daemon has exited: Kill then fails and exited is closed.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// stop asks the daemon to shut down (SIGTERM: drain, final snapshot)
// and waits; after 60s it is killed. It returns the daemon's peak
// resident set in MB.
func (d *daemon) stop() float64 {
	// A failed signal means the daemon has already exited.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// do sends one request and returns the status and body. A transport
// error returns status 0.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// mustDo is do for set-up and check requests, which must succeed with
// the wanted status.
func (d *daemon) mustDo(method, path string, body []byte, want int) ([]byte, error) {
	code, b, err := d.do(context.Background(), method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// scrape reads the daemon's /metrics into sample name (with labels) ->
// value.
func (d *daemon) scrape() (map[string]float64, error) {
	b, err := d.mustDo("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// decode unmarshals a response body, naming the request on failure.
func decode(what string, b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}
