package chaos

import (
	"context"
	"fmt"
	"time"
)

// Phase is one third of a scenario: a duration of generated load with its
// own rate, mix, tolerated error classes, and SLO. The runner executes
// the scenario's fault action at the start of the inject phase and its
// recovery action at the start of the recovery phase.
type Phase struct {
	Name     string
	Duration time.Duration
	// RPS overrides the scenario rate for this phase (0 = inherit).
	RPS float64
	// Mix overrides the scenario mix for this phase (nil = inherit).
	Mix *Mix
	// Expected lists error classes this phase tolerates — they do not
	// count toward the SLO's error rate. ("conn" during a coordinator
	// restart, "429" during a queue flood.)
	Expected []string
	SLO      SLO
}

// Scenario is a declarative chaos experiment: cluster shape, traffic,
// the fault, the recovery, and the per-phase SLOs. Scenarios are fully
// deterministic in their inputs (fixed Seed, fixed phase boundaries);
// the measured latencies of course are not — that is what the SLOs
// bound.
type Scenario struct {
	Name        string
	Description string
	// Fast marks the scenario for the per-PR CI subset (seconds, not
	// minutes); the nightly run executes every scenario.
	Fast bool
	Seed int64
	// Workers is the fleet size (0 = plain daemon, no coordinator). On a
	// fleet the async traffic (Mix.Jobs, Mix.Events) submits distributed
	// island jobs, so jobs run on the workers.
	Workers int
	// WorkerLink, when positive, makes the fleet slow on the wire: each
	// worker dials through a Relay that delays what it sends by this much.
	WorkerLink time.Duration
	ServeArgs  []string
	WorkerArgs []string
	RPS        float64
	Mix        Mix
	// Probe enables the byte-identical check: a distributed reference
	// answer is recorded pre-fault and the same request must return the
	// same bytes post-recovery. Scenarios using it disable the daemon's
	// cache so both answers are real computations.
	Probe bool
	// RecoveryTimeout bounds the recovery-to-healthy wait (default 20s).
	RecoveryTimeout time.Duration
	// Healthy overrides the recovery predicate (default: /healthz 200
	// and the fleet back to Workers).
	Healthy func(ctx context.Context, c *Cluster) bool
	// Inject applies the fault; Recover undoes it (either may be nil).
	Inject  func(ctx context.Context, c *Cluster) error
	Recover func(ctx context.Context, c *Cluster) error
	// Verify runs after the three phases (before the byte-identical
	// probe) against the still-running cluster; a returned error is a
	// scenario failure. Scenarios use it for whole-run assertions that no
	// single phase SLO can express — e.g. "the scheduler actually
	// overlapped runs", read from the scraped peak gauge.
	Verify func(ctx context.Context, c *Cluster) error
	Phases []Phase
}

// fastWorkerArgs makes chaos-scale timing: quick redials, so recovery
// fits in a seconds-long phase. Fault detection is the daemon's
// -heartbeat-timeout, whose fifth the workers beat at.
var fastWorkerArgs = []string{"-retry", "100ms", "-retry-max", "1s", "-quiet"}

// Scenarios returns the registry, in a stable order.
func Scenarios() []Scenario {
	return []Scenario{workerKill(), slowWorker(), coordinatorRestart(), queueFull(), oversizeFlood(), concurrentRuns(), editStream()}
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// workerKill: SIGKILL one of two workers mid-traffic. The coordinator
// must detect the death (read error or heartbeat silence), expel it, and
// retry in-flight runs on the survivor — so distributed requests keep
// succeeding with zero unexpected errors even during the fault. Recovery
// starts a replacement worker. The cache is disabled so the probe's
// post-recovery answer is a real computation.
func workerKill() Scenario {
	return Scenario{
		Name:        "worker-kill",
		Description: "SIGKILL 1 of 2 workers during distributed traffic; expel-and-retry keeps answers flowing; a replacement restores the fleet",
		Fast:        true,
		Seed:        61,
		Workers:     2,
		ServeArgs:   []string{"-cache", "-1", "-heartbeat-timeout", "1s"},
		WorkerArgs:  fastWorkerArgs,
		RPS:         25,
		Mix:         Mix{Cold: 2, Distributed: 3},
		Probe:       true,
		Inject: func(ctx context.Context, c *Cluster) error {
			return c.KillWorker("w1")
		},
		Recover: func(ctx context.Context, c *Cluster) error {
			return c.StartWorker(ctx, "w1b", 0)
		},
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			// During the kill, a distributed run caught mid-epoch retries
			// on the survivor: slower, but still correct — the SLO allows
			// latency, not errors.
			{Name: "inject", Duration: 3 * time.Second, SLO: SLO{MaxP99Ms: 9000, MaxErrorRate: 0.02, MinRequests: 10}},
			{Name: "recovery", Duration: 3 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10, MaxRecoverySeconds: 10}},
		},
	}
}

// slowWorker: a third worker joins behind a slow link, so each of its
// frames reaches the coordinator late. The barrier makes every
// distributed run as slow as its slowest shard, so p99 rises — but the
// answers stay byte-identical (the probe pins it), and heartbeats keep
// the slow worker from being mistaken for dead. Recovery kills the
// laggard.
func slowWorker() Scenario {
	return Scenario{
		Name:        "slow-worker",
		Description: "a worker behind a slow link joins the fleet; latency degrades, correctness and liveness do not",
		Fast:        false,
		Seed:        62,
		Workers:     2,
		ServeArgs:   []string{"-cache", "-1", "-heartbeat-timeout", "1s"},
		WorkerArgs:  fastWorkerArgs,
		RPS:         20,
		Mix:         Mix{Cold: 2, Distributed: 3},
		Probe:       true,
		Inject: func(ctx context.Context, c *Cluster) error {
			if err := c.StartWorker(ctx, "laggard", 20*time.Millisecond); err != nil {
				return err
			}
			return c.WaitFleet(ctx, 3, 10*time.Second)
		},
		Recover: func(ctx context.Context, c *Cluster) error {
			return c.KillWorker("laggard")
		},
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			// The laggard drags the barrier but must not break anything:
			// zero unexpected errors, and no heartbeat expulsion (it is
			// slow, not dead).
			{Name: "inject", Duration: 4 * time.Second, SLO: SLO{MaxP99Ms: 9000, MaxErrorRate: 0, MinRequests: 10}},
			{Name: "recovery", Duration: 3 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0.02, MinRequests: 10, MaxRecoverySeconds: 10}},
		},
	}
}

// coordinatorRestart: SIGKILL the daemon itself, then restart it on the
// same ports. During the outage every request fails at the transport
// ("conn" is the expected class); afterwards the workers' backoff redial
// must rebuild the fleet without manual help, and answers must match the
// pre-fault reference.
func coordinatorRestart() Scenario {
	return Scenario{
		Name:        "coordinator-restart",
		Description: "SIGKILL the daemon mid-traffic, restart on the same ports; workers redial with backoff and the fleet self-heals",
		Fast:        false,
		Seed:        63,
		Workers:     2,
		ServeArgs:   []string{"-cache", "-1", "-heartbeat-timeout", "1s"},
		WorkerArgs:  fastWorkerArgs,
		RPS:         25,
		Mix:         Mix{Cold: 2, Distributed: 3},
		Probe:       true,
		Inject: func(ctx context.Context, c *Cluster) error {
			return c.KillServe()
		},
		Recover: func(ctx context.Context, c *Cluster) error {
			return c.RestartServe(ctx)
		},
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			// The daemon is down: refused connections are the point. The
			// SLO asserts the failure is *clean* — fast transport errors,
			// not hangs or garbage answers.
			{Name: "inject", Duration: 2 * time.Second, Expected: []string{"conn", "timeout"}, SLO: SLO{MaxErrorRate: 0, MinRequests: 10}},
			{Name: "recovery", Duration: 5 * time.Second, Expected: []string{"conn", "timeout"}, SLO: SLO{MaxP99Ms: 9000, MaxErrorRate: 0, MinRequests: 10, MaxRecoverySeconds: 12}},
		},
	}
}

// queueFull: a deliberately tiny job queue over a slow backend, flooded
// with submissions. The backend is one worker behind a 75ms link, and
// every job is a distributed island run on it: a job's epoch frame and
// report each cross the link, so one job takes about 150ms. Beyond the
// backlog bound every submit must answer 429 with a stats-derived
// Retry-After (a 429 without one is the distinct, never-tolerated class
// "429_no_retry_after"); once the flood stops the queue drains and
// service recovers without a restart.
func queueFull() Scenario {
	healthy := func(ctx context.Context, c *Cluster) bool {
		m, err := c.Metrics()
		return err == nil && m.Jobs.Queued == 0
	}
	return Scenario{
		Name:        "queue-full",
		Description: "flood a bounded job queue over a slow backend; 429s carry stats-derived Retry-After and the queue drains after the flood",
		Fast:        true,
		Seed:        64,
		Workers:     1,
		WorkerLink:  75 * time.Millisecond,
		ServeArgs:   []string{"-max-concurrent", "1", "-job-queue", "2"},
		WorkerArgs:  fastWorkerArgs,
		RPS:         10,
		// A slice of the job traffic watches its submissions over SSE
		// instead of polling, so the flood also proves the push path keeps
		// its contract (and its 429s) under queue pressure.
		Mix:     Mix{Hot: 1, Jobs: 3, Events: 1},
		Healthy: healthy,
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, RPS: 4, Expected: []string{"429"}, SLO: SLO{MaxErrorRate: 0, MinRequests: 5}},
			// The flood: submissions far outrun one 150ms-per-job backend.
			// Rejections are expected; job timeouts are not, and the
			// synchronous path must stay responsive.
			{Name: "inject", Duration: 3 * time.Second, RPS: 40, Expected: []string{"429"}, SLO: SLO{MaxErrorRate: 0.02, MinRequests: 40}},
			{Name: "recovery", Duration: 3 * time.Second, RPS: 3, Expected: []string{"429"}, SLO: SLO{MaxErrorRate: 0, MinRequests: 5, MaxRecoverySeconds: 10}},
		},
	}
}

// oversizeFlood: bodies beyond -max-body mixed into normal traffic. The
// daemon must reject each with 413 at the size limit — cheaply, without
// reading the world — while the well-formed share of traffic keeps its
// latency.
func oversizeFlood() Scenario {
	return Scenario{
		Name:        "oversize-flood",
		Description: "flood the daemon with bodies over -max-body; 413s are cheap and well-formed traffic keeps flowing",
		Fast:        true,
		Seed:        65,
		Workers:     0,
		ServeArgs:   []string{"-max-body", "16384"},
		RPS:         25,
		Mix:         Mix{Hot: 3, Cold: 2},
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			{Name: "inject", Duration: 3 * time.Second, RPS: 40, Mix: &Mix{Hot: 2, Cold: 1, Oversize: 3}, Expected: []string{"413"}, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 40}},
			{Name: "recovery", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10, MaxRecoverySeconds: 5}},
		},
	}
}

// concurrentRuns: the cluster scheduler under mixed-K distributed
// traffic on a 4-worker fleet. Runs with islands < fleet lease a strict
// subset of the workers, so the scheduler must overlap them — the
// Verify hook reads the scraped peak_concurrent_runs gauge and fails
// the scenario if everything serialized. Mid-phase one leased worker is
// SIGKILLed: the affected run retries within its lease (or re-queues),
// and the probe pins that every answer stays byte-identical through it.
func concurrentRuns() Scenario {
	const concurrentLink = 12 * time.Millisecond
	return Scenario{
		Name:        "concurrent-runs",
		Description: "mixed-K distributed traffic on 4 workers; the scheduler overlaps runs on disjoint leases and a mid-phase worker kill costs latency, not answers",
		Fast:        true,
		Seed:        66,
		Workers:     4,
		ServeArgs:   []string{"-cache", "-1", "-heartbeat-timeout", "1s"},
		// The slow links keep each distributed run in flight for ~40ms
		// (two epoch frames and a report, 12ms late each); at 40 rps the
		// arrival interval is 25ms, so overlapping K=2 runs are the norm,
		// not a lucky race.
		WorkerLink: concurrentLink,
		WorkerArgs: fastWorkerArgs,
		RPS:        40,
		Mix:        Mix{Cold: 1, Distributed: 4},
		Probe:      true,
		Inject: func(ctx context.Context, c *Cluster) error {
			return c.KillWorker("w3")
		},
		Recover: func(ctx context.Context, c *Cluster) error {
			return c.StartWorker(ctx, "w3b", concurrentLink)
		},
		Verify: func(ctx context.Context, c *Cluster) error {
			m, err := c.Metrics()
			if err != nil {
				return fmt.Errorf("scrape /metrics: %w", err)
			}
			if m.Cluster == nil {
				return fmt.Errorf("/metrics has no cluster block")
			}
			if m.Cluster.PeakConcurrentRuns < 2 {
				return fmt.Errorf("peak_concurrent_runs=%d, want >= 2 — the scheduler serialized every run", m.Cluster.PeakConcurrentRuns)
			}
			return nil
		},
		Phases: []Phase{
			// A saturated admission queue answering 429 (with Retry-After)
			// is back-pressure working as designed, not a failure class.
			{Name: "warmup", Duration: 2 * time.Second, Expected: []string{"429"}, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			{Name: "inject", Duration: 3 * time.Second, Expected: []string{"429"}, SLO: SLO{MaxP99Ms: 9000, MaxErrorRate: 0.02, MinRequests: 10}},
			{Name: "recovery", Duration: 3 * time.Second, Expected: []string{"429"}, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10, MaxRecoverySeconds: 10}},
		},
	}
}

// editStream: repeat-with-edits traffic — the warm-start serving path's
// reason to exist — through a daemon kill. Requests walk a deterministic
// edit chain (Mix.Edits), so after the first cold anchor nearly every
// computation warm-starts from a cached pheromone state. The kill wipes
// that state cache; recovery traffic must transparently re-anchor cold
// and resume warm-hitting, which the Verify hook reads off the
// post-restart counters. Verify then replays one chain step twice and
// pins the answers byte-identical: warm planning against a quiescent
// state cache is deterministic, so warm serving never turns repeatable
// answers into drifting ones. The result cache is disabled so every
// replay is a real computation, not a stored body.
func editStream() Scenario {
	return Scenario{
		Name:        "edit-stream",
		Description: "repeat-with-edits traffic through a daemon kill; warm-starts resume after the state cache is wiped and replayed answers stay byte-identical",
		Fast:        true,
		Seed:        67,
		Workers:     0,
		ServeArgs:   []string{"-cache", "-1"},
		RPS:         25,
		Mix:         Mix{Edits: 4, Cold: 1},
		Inject: func(ctx context.Context, c *Cluster) error {
			return c.KillServe()
		},
		Recover: func(ctx context.Context, c *Cluster) error {
			return c.RestartServe(ctx)
		},
		Verify: func(ctx context.Context, c *Cluster) error {
			m, err := c.Metrics()
			if err != nil {
				return fmt.Errorf("scrape /metrics: %w", err)
			}
			if m.WarmHits < 1 {
				return fmt.Errorf("warm_hits=%d after the restart — the edit stream never warm-started", m.WarmHits)
			}
			if m.WarmToursSaved < 1 {
				return fmt.Errorf("warm_hits=%d but warm_tours_saved=%d — warm runs burned full budgets", m.WarmHits, m.WarmToursSaved)
			}
			// The chain is a pure function of the scenario seed, so a
			// throwaway generator reproduces the exact graphs the traffic
			// posted. Replay one step twice with a pinned query: both
			// requests warm-plan against the same (now idle) state cache,
			// and the colony is bitwise deterministic given (state, graph,
			// seed) — any byte drift is a warm-serving bug.
			body := NewGenerator(c.BaseURL, 67).EditChain()[1]
			first, err := c.postBytes(ctx, "/layer?algo=aco&tours=6&seed=11", body)
			if err != nil {
				return fmt.Errorf("replay 1: %w", err)
			}
			second, err := c.postBytes(ctx, "/layer?algo=aco&tours=6&seed=11", body)
			if err != nil {
				return fmt.Errorf("replay 2: %w", err)
			}
			if string(first) != string(second) {
				return fmt.Errorf("replayed edit-chain answers diverge:\n%s\n%s", first, second)
			}
			return nil
		},
		Phases: []Phase{
			{Name: "warmup", Duration: 2 * time.Second, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10}},
			// The daemon is down: clean transport failures, nothing wedged.
			{Name: "inject", Duration: 2 * time.Second, Expected: []string{"conn", "timeout"}, SLO: SLO{MaxErrorRate: 0, MinRequests: 10}},
			{Name: "recovery", Duration: 3 * time.Second, Expected: []string{"conn", "timeout"}, SLO: SLO{MaxP99Ms: 5000, MaxErrorRate: 0, MinRequests: 10, MaxRecoverySeconds: 10}},
		},
	}
}

// validate sanity-checks a scenario definition (used by tests and the
// runner so a typo'd registry entry fails loudly).
func (sc Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if len(sc.Phases) != 3 {
		return fmt.Errorf("%s: want 3 phases (warmup/inject/recovery), have %d", sc.Name, len(sc.Phases))
	}
	for i, want := range []string{"warmup", "inject", "recovery"} {
		if sc.Phases[i].Name != want {
			return fmt.Errorf("%s: phase %d is %q, want %q", sc.Name, i, sc.Phases[i].Name, want)
		}
	}
	if sc.Mix.total() <= 0 {
		return fmt.Errorf("%s: empty traffic mix", sc.Name)
	}
	if sc.Probe && sc.Workers == 0 {
		return fmt.Errorf("%s: byte-identical probe needs a coordinator fleet", sc.Name)
	}
	if sc.Mix.Distributed > 0 && sc.Workers == 0 {
		return fmt.Errorf("%s: distributed traffic needs workers", sc.Name)
	}
	return nil
}
