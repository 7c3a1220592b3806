package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"time"
)

// Cluster owns a real daglayer process tree on loopback: the serve daemon
// (optionally with an embedded shard coordinator) plus worker processes.
// Scenarios manipulate it mid-run — SIGKILL a worker, restart the daemon
// on its original ports — and the load generator measures the fallout.
type Cluster struct {
	// Bin is the daglayer binary to spawn.
	Bin string
	// Coordinator selects whether serve also runs a shard coordinator.
	Coordinator bool
	// ServeArgs / WorkerArgs are appended to the respective command lines
	// (chaos knobs like -job-queue, -heartbeat-timeout, -retry).
	ServeArgs  []string
	WorkerArgs []string
	// Log receives the process tree's stderr (nil = inherit os.Stderr).
	Log io.Writer

	// BaseURL / CoordAddr are set once the daemon logs its listen
	// addresses; restarts pin the same ports so workers can redial.
	BaseURL   string
	httpAddr  string
	CoordAddr string

	mu      sync.Mutex
	serve   *exec.Cmd
	workers map[string]*exec.Cmd
	relays  []*Relay
}

// StartCluster spawns the daemon (and nothing else; workers are started
// explicitly so scenarios control the fleet) and waits for its listen
// addresses.
func StartCluster(ctx context.Context, c *Cluster) (*Cluster, error) {
	if c.workers == nil {
		c.workers = make(map[string]*exec.Cmd)
	}
	if err := c.StartServe(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

var (
	// The daemon announces its listen addresses via slog (text handler):
	// msg=listening for HTTP, msg="coordinator listening" for the shard
	// transport, each with the address as the addr attr.
	serveAddrRE = regexp.MustCompile(`\bmsg=listening addr=(\S+)`)
	coordAddrRE = regexp.MustCompile(`\bmsg="coordinator listening" addr=(\S+)`)
)

// StartServe launches the serve daemon. The first start listens on :0
// (the kernel picks free ports); restarts reuse the addresses learned the
// first time, so a recovering fleet redials the same coordinator port.
func (c *Cluster) StartServe(ctx context.Context) error {
	c.mu.Lock()
	httpAddr, coordAddr := c.httpAddr, c.CoordAddr
	c.mu.Unlock()
	if httpAddr == "" {
		httpAddr = "127.0.0.1:0"
	}
	args := []string{"serve", "-addr", httpAddr}
	if c.Coordinator {
		if coordAddr == "" {
			coordAddr = "127.0.0.1:0"
		}
		args = append(args, "-coordinator", coordAddr)
	}
	args = append(args, c.ServeArgs...)
	cmd := exec.CommandContext(ctx, c.Bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = c.stderr()
	if err := cmd.Start(); err != nil {
		return err
	}
	gotHTTP, gotCoord, err := scanAddrs(stdout, c.Coordinator)
	if err != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		return fmt.Errorf("serve never logged its addresses: %w", err)
	}
	c.mu.Lock()
	c.serve = cmd
	c.httpAddr = gotHTTP
	c.BaseURL = "http://" + gotHTTP
	if c.Coordinator {
		c.CoordAddr = gotCoord
	}
	c.mu.Unlock()
	return nil
}

// scanAddrs reads the daemon's stdout until the HTTP (and, when asked,
// coordinator) listen addresses appear, then drains the pipe forever.
func scanAddrs(stdout io.Reader, wantCoord bool) (httpAddr, coordAddr string, err error) {
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(30 * time.Second)
	for (httpAddr == "" || (wantCoord && coordAddr == "")) && sc.Scan() {
		line := sc.Text()
		if m := coordAddrRE.FindStringSubmatch(line); m != nil {
			coordAddr = m[1]
			continue
		}
		if m := serveAddrRE.FindStringSubmatch(line); m != nil {
			httpAddr = m[1]
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if httpAddr == "" || (wantCoord && coordAddr == "") {
		return "", "", fmt.Errorf("http=%q coord=%q (scan err %v)", httpAddr, coordAddr, sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return httpAddr, coordAddr, nil
}

// KillServe SIGKILLs the daemon — no graceful shutdown, this is chaos —
// and reaps it.
func (c *Cluster) KillServe() error {
	c.mu.Lock()
	cmd := c.serve
	c.serve = nil
	c.mu.Unlock()
	if cmd == nil {
		return fmt.Errorf("serve is not running")
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_ = cmd.Wait()
	return nil
}

// RestartServe is KillServe (when running) followed by StartServe on the
// pinned ports. A freed port can briefly linger, so the bind is retried.
func (c *Cluster) RestartServe(ctx context.Context) error {
	c.mu.Lock()
	running := c.serve != nil
	c.mu.Unlock()
	if running {
		if err := c.KillServe(); err != nil {
			return err
		}
	}
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = c.StartServe(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	return fmt.Errorf("restart on %s: %w", c.httpAddr, err)
}

// StartWorker launches one worker process registered with the pinned
// coordinator address. With a positive link the worker dials through a
// Relay that delays everything it sends by link: a slow worker, made slow
// on the wire rather than by a flag of its own.
func (c *Cluster) StartWorker(ctx context.Context, name string, link time.Duration) error {
	c.mu.Lock()
	coordAddr := c.CoordAddr
	c.mu.Unlock()
	if coordAddr == "" {
		return fmt.Errorf("cluster has no coordinator")
	}
	if link > 0 {
		r, err := StartRelay(coordAddr, link)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.relays = append(c.relays, r)
		c.mu.Unlock()
		coordAddr = r.Addr()
	}
	args := []string{"worker", "-coordinator", coordAddr, "-name", name}
	args = append(args, c.WorkerArgs...)
	cmd := exec.CommandContext(ctx, c.Bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = c.stderr()
	if err := cmd.Start(); err != nil {
		return err
	}
	c.mu.Lock()
	c.workers[name] = cmd
	c.mu.Unlock()
	go func() { _ = cmd.Wait() }()
	return nil
}

// KillWorker SIGKILLs a worker mid-whatever-it-was-doing. The coordinator
// must detect the death (read error or heartbeat silence) and expel it.
func (c *Cluster) KillWorker(name string) error {
	c.mu.Lock()
	cmd, ok := c.workers[name]
	delete(c.workers, name)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("no worker %q", name)
	}
	return cmd.Process.Kill()
}

// Close tears the whole tree down.
func (c *Cluster) Close() {
	c.mu.Lock()
	serve := c.serve
	c.serve = nil
	workers, relays := c.workers, c.relays
	c.workers, c.relays = make(map[string]*exec.Cmd), nil
	c.mu.Unlock()
	for _, cmd := range workers {
		_ = cmd.Process.Kill()
	}
	for _, r := range relays {
		_ = r.Close()
	}
	if serve != nil {
		_ = serve.Process.Kill()
		_ = serve.Wait()
	}
}

func (c *Cluster) stderr() io.Writer {
	if c.Log != nil {
		return c.Log
	}
	return os.Stderr
}

// metricsCounters is the slice of /metrics the harness scrapes: enough to
// compute a phase's cache hit rate and read the job gauges.
type metricsCounters struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	WarmHits       int64 `json:"warm_hits"`
	WarmMisses     int64 `json:"warm_misses"`
	WarmToursSaved int64 `json:"warm_tours_saved"`
	Jobs           struct {
		Queued  int64 `json:"queued"`
		Running int64 `json:"running"`
	} `json:"jobs"`
	Cluster *struct {
		Workers            int   `json:"workers"`
		PeakConcurrentRuns int64 `json:"peak_concurrent_runs"`
		RunsQueued         int64 `json:"runs_queued"`
		RunsRejected       int64 `json:"runs_rejected"`
	} `json:"cluster"`
}

// postBytes posts a body to a daemon path and returns the response
// bytes; a non-200 answer is an error (Verify hooks replay requests the
// traffic already proved serviceable).
func (c *Cluster) postBytes(ctx context.Context, path, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

// Metrics scrapes /metrics; an unreachable daemon (mid-chaos) returns an
// error, not a panic.
func (c *Cluster) Metrics() (metricsCounters, error) {
	var m metricsCounters
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// FleetSize reports the coordinator's registered worker count (0 with no
// coordinator or an unreachable daemon).
func (c *Cluster) FleetSize() int {
	m, err := c.Metrics()
	if err != nil || m.Cluster == nil {
		return 0
	}
	return m.Cluster.Workers
}

// WaitFleet blocks until the coordinator reports exactly n workers.
func (c *Cluster) WaitFleet(ctx context.Context, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.FleetSize() == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet never reached %d workers (have %d)", n, c.FleetSize())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// WaitHealthy blocks until /healthz answers 200.
func (c *Cluster) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(c.BaseURL + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			drain(resp)
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became healthy: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}
