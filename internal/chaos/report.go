// Package chaos is the load/chaos/SLO harness: it drives a real daglayer
// process tree (HTTP daemon, optionally a shard coordinator plus worker
// fleet) with a seeded traffic mix while injecting declarative faults —
// killed workers, slow workers, a restarted coordinator, a flooded job
// queue, oversize request floods — and asserts service-level objectives
// per phase. Every scenario runs three phases, warmup → inject →
// recovery, and produces a machine-readable Report; cmd/loadgen is the
// CLI front end and CI gates on the fast scenario subset.
//
// The methodology follows the SLO-gated chaos pattern: fixed seeds make a
// scenario's traffic reproducible, the fault is injected at a phase
// boundary (not a random instant), and the release gate is the SLO
// evaluation — p99 ceilings, unexpected-error rates, recovery-to-healthy
// time, and byte-identical post-recovery results (DESIGN.md §11).
package chaos

import (
	"fmt"
	"sort"

	"antlayer/internal/obs"
)

// SLO is the per-phase service-level objective. Zero-valued bounds are
// not asserted (except MaxErrorRate, where zero genuinely means "no
// unexpected errors tolerated" — chaos phases that tolerate some set it
// explicitly).
type SLO struct {
	// MaxP99Ms bounds the phase's p99 request latency, milliseconds.
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// MaxErrorRate bounds the fraction of requests answering with an
	// unexpected class (an error class not in the phase's expected list).
	MaxErrorRate float64 `json:"max_error_rate"`
	// MinRequests guards against a vacuous pass: a phase that completed
	// fewer requests did not actually exercise the system.
	MinRequests int64 `json:"min_requests,omitempty"`
	// MaxRecoverySeconds bounds recovery-to-healthy time; evaluated on
	// the recovery phase only (0 = not asserted).
	MaxRecoverySeconds float64 `json:"max_recovery_seconds,omitempty"`
}

// PhaseReport is the measured outcome of one phase of a scenario.
type PhaseReport struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Requests int64   `json:"requests"`
	// Shed counts load-generator ticks dropped because the in-flight cap
	// was reached — backpressure in the generator, not a server error.
	Shed int64 `json:"shed"`
	// Classes histograms request outcomes: "ok" plus error classes
	// ("conn", "timeout", "429", "413", "4xx", "5xx", "job_failed", ...).
	Classes map[string]int64 `json:"classes"`
	// ErrorRate is the unexpected-error fraction: classes that are
	// neither "ok" nor in the phase's expected list, over all requests.
	ErrorRate float64 `json:"error_rate"`
	// Expected lists the error classes this phase tolerates (excluded
	// from ErrorRate) — e.g. "429" during a queue-full flood.
	Expected []string `json:"expected,omitempty"`
	P50Ms    float64  `json:"p50_ms"`
	P95Ms    float64  `json:"p95_ms"`
	P99Ms    float64  `json:"p99_ms"`
	MaxMs    float64  `json:"max_ms"`
	// CacheHitRate is the serve daemon's hit rate over this phase
	// (delta of /metrics counters); -1 when unmeasurable (daemon down,
	// or no cacheable traffic).
	CacheHitRate float64 `json:"cache_hit_rate"`
	SLO          SLO     `json:"slo"`
	// SlowestTrace is the span breakdown of the phase's slowest traced
	// request, fetched from GET /traces/{id} — attached to the recovery
	// phase so an SLO miss is self-diagnosing (where did the time go:
	// queue, lease, a slow worker epoch?).
	SlowestTrace *obs.TraceView `json:"slowest_trace,omitempty"`
	// Violations lists every SLO bound this phase broke, empty on pass.
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// Report is the outcome of one scenario run — the unit slo_report.json
// aggregates.
type Report struct {
	Scenario    string        `json:"scenario"`
	Description string        `json:"description"`
	Seed        int64         `json:"seed"`
	Phases      []PhaseReport `json:"phases"`
	// RecoverySeconds is the time from the recovery action to the
	// cluster reporting healthy again; -1 when the scenario has no
	// recovery measurement, or the cluster never recovered in bounds.
	RecoverySeconds float64 `json:"recovery_seconds"`
	// ProbeIdentical reports the byte-identical post-recovery check:
	// nil = not run, true = post-recovery distributed result matched the
	// fault-free reference byte for byte.
	ProbeIdentical *bool    `json:"probe_identical,omitempty"`
	Pass           bool     `json:"pass"`
	Failures       []string `json:"failures,omitempty"`
}

// Summary is the slo_report.json document: every scenario run and the
// overall verdict CI gates on.
type Summary struct {
	Pass    bool     `json:"pass"`
	Reports []Report `json:"reports"`
}

// buildPhaseReport folds a phase's raw samples into the report row and
// evaluates the SLO. expected lists tolerated error classes.
func buildPhaseReport(name string, seconds float64, s *SampleSet, expected []string, slo SLO, cacheHitRate float64) PhaseReport {
	lats, classes, shed := s.snapshot()
	sort.Float64s(lats)
	tolerated := make(map[string]bool, len(expected)+1)
	tolerated["ok"] = true
	for _, c := range expected {
		tolerated[c] = true
	}
	var total, unexpected int64
	for class, n := range classes {
		total += n
		if !tolerated[class] {
			unexpected += n
		}
	}
	rate := 0.0
	if total > 0 {
		rate = float64(unexpected) / float64(total)
	}
	p := PhaseReport{
		Name:         name,
		Seconds:      seconds,
		Requests:     total,
		Shed:         shed,
		Classes:      classes,
		ErrorRate:    rate,
		Expected:     expected,
		P50Ms:        obs.Quantile(lats, 0.50),
		P95Ms:        obs.Quantile(lats, 0.95),
		P99Ms:        obs.Quantile(lats, 0.99),
		CacheHitRate: cacheHitRate,
		SLO:          slo,
	}
	if n := len(lats); n > 0 {
		p.MaxMs = lats[n-1]
	}
	p.Violations = evaluateSLO(p, slo)
	p.Pass = len(p.Violations) == 0
	return p
}

// PhaseFromSamples folds raw generator samples into a report row with no
// SLO asserted — cmd/loadgen's raw mode, for eyeballing a live daemon.
func PhaseFromSamples(name string, seconds float64, s *SampleSet) PhaseReport {
	return buildPhaseReport(name, seconds, s, nil, SLO{MaxErrorRate: 1}, -1)
}

// evaluateSLO returns one violation string per broken bound (recovery
// time is evaluated by the runner, which owns the measurement).
func evaluateSLO(p PhaseReport, slo SLO) []string {
	var v []string
	if slo.MaxP99Ms > 0 && p.P99Ms > slo.MaxP99Ms {
		v = append(v, fmt.Sprintf("p99 %.1fms exceeds %.1fms", p.P99Ms, slo.MaxP99Ms))
	}
	if p.ErrorRate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("unexpected-error rate %.3f exceeds %.3f (classes %v)", p.ErrorRate, slo.MaxErrorRate, p.Classes))
	}
	if slo.MinRequests > 0 && p.Requests < slo.MinRequests {
		v = append(v, fmt.Sprintf("only %d requests completed, want >= %d (phase did not exercise the system)", p.Requests, slo.MinRequests))
	}
	return v
}
