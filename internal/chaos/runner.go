package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"antlayer/internal/obs"
)

// RunOptions configures a scenario run.
type RunOptions struct {
	// Bin is the daglayer binary to spawn.
	Bin string
	// Stretch multiplies every phase duration (1 = as declared; the
	// nightly run uses a larger factor for longer soak).
	Stretch float64
	// Log narrates progress (nil = silent).
	Log *log.Logger
	// ProcessLog receives the process tree's stderr (nil = os.Stderr).
	ProcessLog io.Writer
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log.Printf(format, args...)
	}
}

// probeQuery is the byte-identical check's request: an island run with a
// seed outside the load generator's range, so it never collides with
// generated traffic. warm=false pins the cold path — the probe asserts
// distribution invariance of a from-scratch run, and with the result
// cache disabled the second (distributed) probe would otherwise
// warm-start off the anchor the first one just published.
const probeQuery = "algo=island&islands=4&tours=3&migration-interval=1&seed=701&warm=false"

// Run executes one scenario end to end: start the process tree, record
// the fault-free reference, drive the three phases (injecting the fault
// and the recovery at their boundaries), measure recovery-to-healthy,
// re-probe, and fold everything into a Report. The returned error covers
// harness failures (binary missing, cluster never started); SLO misses
// are not errors — they are the Report's Pass=false.
func Run(ctx context.Context, sc Scenario, opt RunOptions) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	stretch := opt.Stretch
	if stretch <= 0 {
		stretch = 1
	}
	report := &Report{
		Scenario:        sc.Name,
		Description:     sc.Description,
		Seed:            sc.Seed,
		RecoverySeconds: -1,
	}

	cluster, err := StartCluster(ctx, &Cluster{
		Bin:         opt.Bin,
		Coordinator: sc.Workers > 0,
		// Not -quiet: the daemon's stdout is where the harness learns the
		// listen addresses.
		ServeArgs:  sc.ServeArgs,
		WorkerArgs: sc.WorkerArgs,
		Log:        opt.ProcessLog,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: start cluster: %w", sc.Name, err)
	}
	defer cluster.Close()
	if err := cluster.WaitHealthy(ctx, 15*time.Second); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	for i := 0; i < sc.Workers; i++ {
		if err := cluster.StartWorker(ctx, fmt.Sprintf("w%d", i+1), sc.WorkerLink); err != nil {
			return nil, fmt.Errorf("%s: start worker: %w", sc.Name, err)
		}
	}
	if sc.Workers > 0 {
		if err := cluster.WaitFleet(ctx, sc.Workers, 15*time.Second); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	opt.logf("%s: cluster up at %s (%d workers)", sc.Name, cluster.BaseURL, sc.Workers)

	// The fault-free reference for the byte-identical probe: the healthy
	// fleet's distributed answer, sanity-checked against the in-process
	// one (the standing determinism guarantee).
	var reference []byte
	if sc.Probe {
		local, err := postProbe(ctx, cluster.BaseURL, probeQuery)
		if err != nil {
			return nil, fmt.Errorf("%s: reference probe: %w", sc.Name, err)
		}
		reference, err = postProbe(ctx, cluster.BaseURL, probeQuery+"&distributed=true")
		if err != nil {
			return nil, fmt.Errorf("%s: reference probe (distributed): %w", sc.Name, err)
		}
		if !bytes.Equal(local, reference) {
			return nil, fmt.Errorf("%s: healthy cluster already diverges from in-process — not a chaos finding, a broken build", sc.Name)
		}
	}

	gen := NewGenerator(cluster.BaseURL, sc.Seed)
	gen.DistributedJobs = sc.Workers > 0
	healthy := sc.Healthy
	if healthy == nil {
		healthy = func(ctx context.Context, c *Cluster) bool {
			if err := c.WaitHealthy(ctx, time.Millisecond); err != nil {
				return false
			}
			return sc.Workers == 0 || c.FleetSize() == sc.Workers
		}
	}

	for _, ph := range sc.Phases {
		switch ph.Name {
		case "inject":
			if sc.Inject != nil {
				opt.logf("%s: injecting fault", sc.Name)
				if err := sc.Inject(ctx, cluster); err != nil {
					return nil, fmt.Errorf("%s: inject: %w", sc.Name, err)
				}
			}
		case "recovery":
			if sc.Recover != nil {
				opt.logf("%s: recovering", sc.Name)
				if err := sc.Recover(ctx, cluster); err != nil {
					return nil, fmt.Errorf("%s: recover: %w", sc.Name, err)
				}
			}
		}

		// Recovery-to-healthy is measured concurrently with the phase's
		// load: the clock starts at the recovery action and stops at the
		// first healthy poll.
		var healthyAt chan time.Duration
		phaseStart := time.Now()
		if ph.Name == "recovery" {
			healthyAt = make(chan time.Duration, 1)
			go func() {
				timeout := sc.RecoveryTimeout
				if timeout <= 0 {
					timeout = 20 * time.Second
				}
				deadline := time.Now().Add(time.Duration(float64(timeout) * stretch))
				for {
					if healthy(ctx, cluster) {
						healthyAt <- time.Since(phaseStart)
						return
					}
					if time.Now().After(deadline) || ctx.Err() != nil {
						healthyAt <- -1
						return
					}
					time.Sleep(50 * time.Millisecond)
				}
			}()
		}

		rps := ph.RPS
		if rps == 0 {
			rps = sc.RPS
		}
		mix := sc.Mix
		if ph.Mix != nil {
			mix = *ph.Mix
		}
		before, beforeErr := cluster.Metrics()
		duration := time.Duration(float64(ph.Duration) * stretch)
		opt.logf("%s: phase %s — %.0f rps for %s", sc.Name, ph.Name, rps, duration)
		samples := gen.Run(ctx, duration, rps, mix)
		seconds := time.Since(phaseStart).Seconds()

		hitRate := -1.0
		if after, err := cluster.Metrics(); err == nil && beforeErr == nil {
			hits := after.CacheHits - before.CacheHits
			misses := after.CacheMisses - before.CacheMisses
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
		}

		pr := buildPhaseReport(ph.Name, seconds, samples, ph.Expected, ph.SLO, hitRate)
		if ph.Name == "recovery" {
			// The self-diagnosis hook: pull the span breakdown of the
			// phase's slowest traced request, so a recovery-phase SLO miss
			// ships with where the time went instead of just a number.
			if id, ms := samples.SlowestTrace(); id != "" {
				if tv, err := fetchTrace(ctx, cluster.BaseURL, id); err == nil {
					pr.SlowestTrace = tv
				} else {
					opt.logf("%s: slowest recovery trace %s (%.1fms) unavailable: %v", sc.Name, id, ms, err)
				}
			}
			if d := <-healthyAt; d >= 0 {
				report.RecoverySeconds = d.Seconds()
				if ph.SLO.MaxRecoverySeconds > 0 && d.Seconds() > ph.SLO.MaxRecoverySeconds*stretch {
					pr.Violations = append(pr.Violations, fmt.Sprintf("recovered in %.1fs, want <= %.1fs", d.Seconds(), ph.SLO.MaxRecoverySeconds*stretch))
				}
			} else if ph.SLO.MaxRecoverySeconds > 0 {
				pr.Violations = append(pr.Violations, "cluster never reported healthy after recovery")
			}
			pr.Pass = len(pr.Violations) == 0
		}
		opt.logf("%s: phase %s — %d requests, p50 %.1fms p95 %.1fms p99 %.1fms, classes %v",
			sc.Name, ph.Name, pr.Requests, pr.P50Ms, pr.P95Ms, pr.P99Ms, pr.Classes)
		report.Phases = append(report.Phases, pr)
	}

	// Whole-run assertions against the still-running cluster — e.g. the
	// concurrent-runs scenario reading the peak overlap gauge.
	if sc.Verify != nil {
		if err := sc.Verify(ctx, cluster); err != nil {
			report.Failures = append(report.Failures, fmt.Sprintf("verify: %v", err))
		}
	}

	// The byte-identical probe: after the dust settles, the same request
	// answered by the recovered fleet must match the fault-free bytes.
	if sc.Probe {
		got, err := postProbe(ctx, cluster.BaseURL, probeQuery+"&distributed=true")
		identical := err == nil && bytes.Equal(got, reference)
		report.ProbeIdentical = &identical
		if !identical {
			if err != nil {
				report.Failures = append(report.Failures, fmt.Sprintf("post-recovery probe failed: %v", err))
			} else {
				report.Failures = append(report.Failures, "post-recovery distributed answer diverges from the fault-free reference")
			}
		}
	}

	report.Pass = len(report.Failures) == 0
	for _, pr := range report.Phases {
		if !pr.Pass {
			report.Pass = false
			report.Failures = append(report.Failures, fmt.Sprintf("phase %s: %s", pr.Name, strings.Join(pr.Violations, "; ")))
		}
	}
	opt.logf("%s: %s", sc.Name, verdict(report.Pass))
	return report, nil
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// fetchTrace pulls one trace's span breakdown from the daemon.
func fetchTrace(ctx context.Context, baseURL, id string) (*obs.TraceView, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/traces/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		return nil, err
	}
	return &tv, nil
}

// postProbe issues the byte-identical check's request with generous
// bounds (the probe asserts correctness, not latency).
func postProbe(ctx context.Context, baseURL, query string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/layer?"+query, strings.NewReader(loadDOT))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("probe status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}
