package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of the utime and stime fields
// of /proc/<pid>/stat; Linux fixes it at 100 on every architecture Go
// supports.
const clockTicksPerSecond = 100

// proc is one spawned process. done closes once it has been reaped.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A benchmark killed before it can clean up takes its tree with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed process exits with an error by design
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only when it already exited
	<-p.done
}

// tree is a running daglayer process tree on loopback: the serve daemon
// and, for a coordinator, its worker processes.
type tree struct {
	base  string  // the daemon's http://host:port
	procs []*proc // the daemon first
	ctl   *http.Client
}

// startTree spawns the workload's process tree and returns it with its
// set-up time: from spawning the daemon until /healthz answers, the
// workers (if any) have registered, and the workload's probe request has
// come back correct. Workers start only once the coordinator listens, so
// their reconnect backoff never counts as set-up.
func startTree(ctx context.Context, bin string, w *workload, traced bool) (*tree, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"serve", "-quiet", "-addr", addr, "-trace-sample", "0"}
	if traced {
		// The ring holds the traces of the last stretch of the timed
		// phase, fetched once it ends.
		args[len(args)-1] = "1"
		args = append(args, "-trace-ring", strconv.Itoa(traceRing))
	}
	var coord string
	if w.workers > 0 {
		if coord, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		args = append(args, "-coordinator", coord)
	}
	t := &tree{base: "http://" + addr, ctl: &http.Client{Timeout: 10 * time.Second}}
	start := time.Now()
	serve, err := spawn(bin, args...)
	if err != nil {
		return nil, 0, err
	}
	t.procs = append(t.procs, serve)
	fail := func(err error) (*tree, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	if err := t.waitFor(ctx, "/healthz answers", func() bool { return t.get("/healthz", nil) == nil }); err != nil {
		return fail(err)
	}
	for i := 0; i < w.workers; i++ {
		p, err := spawn(bin, "worker", "-quiet", "-coordinator", coord, "-name", fmt.Sprintf("w%d", i+1))
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, p)
	}
	if w.workers > 0 {
		registered := func() bool {
			var c struct {
				Workers int `json:"workers"`
			}
			return t.get("/cluster", &c) == nil && c.Workers == w.workers
		}
		if err := t.waitFor(ctx, "the workers register", registered); err != nil {
			return fail(err)
		}
	}
	body, err := t.post(ctx, w.probe)
	if err != nil {
		return fail(fmt.Errorf("set-up probe: %w", err))
	}
	if _, err := checkAnswer(w.probe, body); err != nil {
		return fail(fmt.Errorf("set-up probe: %w", err))
	}
	return t, time.Since(start), nil
}

// freeAddr returns a loopback address with a port the kernel just
// handed out and released.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitFor polls cond every 100 µs until it holds, a process of the tree
// dies, or 30 s pass. Set-up takes a few milliseconds, so a coarser poll
// would quantize it.
func (t *tree) waitFor(ctx context.Context, what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		for _, p := range t.procs {
			if p.exited() {
				return fmt.Errorf("%s exited before %s", strings.Join(p.cmd.Args, " "), what)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting until %s", what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// get fetches a control path and, when into is non-nil, decodes its JSON.
func (t *tree) get(path string, into any) error {
	resp, err := t.ctl.Get(t.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// post sends one request on the control client and returns a 200 body.
func (t *tree) post(ctx context.Context, r request) ([]byte, error) {
	body, status, err := postLayer(ctx, t.ctl, t.base, r, "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	return body, err
}

// stop kills the workers, then the daemon, and reaps them all.
func (t *tree) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
	t.procs = nil
	t.ctl.CloseIdleConnections()
}

// cpuMillis is the CPU time (user + system) the tree has used so far.
func (t *tree) cpuMillis() (float64, error) {
	var ticks int64
	for _, p := range t.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; the fields after it do not.
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
		}
		for _, f := range fields[11:13] { // utime, stime
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return float64(ticks) * 1000 / clockTicksPerSecond, nil
}

// peakRSSMiB is the sum of the tree's resident-set high-water marks.
func (t *tree) peakRSSMiB() (float64, error) {
	var kib int64
	for _, p := range t.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, err
				}
				kib += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
		}
	}
	return float64(kib) / 1024, nil
}

// hostCPU reads the machine-wide CPU time counters of /proc/stat: the
// time the hypervisor stole from this machine's CPUs and the total.
// The stolen share of a phase tells a run the host slowed down from one
// the program did.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (the 9th and 10th values) are already
		// counted in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
