package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"antlayer/internal/batch"
	"antlayer/internal/obs"
	"antlayer/internal/shard"
)

// These golden tests pin the exact JSON field names of the /metrics and
// /cluster documents. The loadgen scraper (internal/chaos) and any
// external dashboard key off these names; renaming a field is an API
// break and must show up as a diff here, not as a silently-zero metric
// in a chaos report.

const metricsGolden = `{
  "uptime_seconds": 12.5,
  "requests_total": 100,
  "layer_requests": 80,
  "cache_hits": 40,
  "cache_misses": 20,
  "cache_hit_rate": 0.6666666666666666,
  "cache_entries": 20,
  "cache_bytes": 4096,
  "cache_oversize_rejects": 1,
  "warm_hits": 9,
  "warm_misses": 4,
  "warm_tours_saved": 270,
  "warm_entries": 6,
  "warm_bytes": 8192,
  "coalesced": 5,
  "errors": 3,
  "timeouts": 2,
  "tours_run": 1234,
  "in_flight": 1,
  "latency_ms": {
    "count": 80,
    "p50": 1.5,
    "p99": 9.75
  },
  "distributed_runs": 7,
  "distributed_fallbacks": 1,
  "sse_streams": 6,
  "sse_active": 2,
  "bulk_requests": 3,
  "bulk_jobs": 12,
  "jobs": {
    "submitted": 30,
    "rejected": 4,
    "queued": 2,
    "running": 1,
    "done": 25,
    "failed": 2,
    "canceled": 1,
    "depth": 64,
    "workers": 8
  },
  "events": {
    "published": 90,
    "last_seq": 90,
    "subscribers": 2,
    "ring_len": 90
  },
  "cluster": {
    "workers": 2,
    "idle_workers": 1,
    "runs": 7,
    "run_errors": 1,
    "runs_in_flight": 1,
    "peak_concurrent_runs": 2,
    "runs_queued": 1,
    "run_queue_bound": 16,
    "runs_rejected": 2,
    "dispatch_ms": {
      "count": 7,
      "p50_ms": 0.5,
      "p99_ms": 4.25
    },
    "epochs": 21,
    "migrations": 14,
    "heartbeat_expels": 1,
    "heartbeat_timeout_ms": 10000,
    "per_worker": [
      {
        "id": 1,
        "name": "w1",
        "state": "leased",
        "run": 5,
        "islands": 2,
        "epochs": 21,
        "mean_epoch_ms": 3.25,
        "max_epoch_ms": 11.5,
        "heartbeats": 42,
        "last_seen_age_ms": 120.5
      }
    ]
  },
  "runtime": {
    "goroutines": 12,
    "heap_alloc_bytes": 1048576,
    "heap_sys_bytes": 4194304,
    "heap_objects": 2048,
    "next_gc_bytes": 2097152,
    "gc_cycles": 3,
    "gc_pause_total_ms": 0.75
  }
}`

// TestMetricsSnapshotGoldenShape marshals a fully populated snapshot and
// compares it byte-for-byte against the pinned document.
func TestMetricsSnapshotGoldenShape(t *testing.T) {
	snap := MetricsSnapshot{
		UptimeSeconds:        12.5,
		RequestsTotal:        100,
		LayerRequests:        80,
		CacheHits:            40,
		CacheMisses:          20,
		CacheHitRate:         2.0 / 3.0,
		CacheEntries:         20,
		CacheBytes:           4096,
		CacheOversizeRejects: 1,
		WarmHits:             9,
		WarmMisses:           4,
		WarmToursSaved:       270,
		WarmEntries:          6,
		WarmBytes:            8192,
		Coalesced:            5,
		Errors:               3,
		Timeouts:             2,
		ToursRun:             1234,
		InFlight:             1,
		Latency:              LatencyQuantile{Count: 80, P50: 1.5, P99: 9.75},
		DistributedRuns:      7,
		DistributedFallbacks: 1,
		SSEStreams:           6,
		SSEActive:            2,
		BulkRequests:         3,
		BulkJobs:             12,
		Jobs: batch.Stats{
			Submitted: 30, Rejected: 4, Queued: 2, Running: 1,
			Done: 25, Failed: 2, Canceled: 1, Depth: 64, Workers: 8,
		},
		Events: batch.EventStats{
			Published: 90, LastSeq: 90, Subscribers: 2, RingLen: 90,
		},
		Cluster: &shard.ClusterMetrics{
			Workers: 2, IdleWorkers: 1, Runs: 7, RunErrors: 1,
			RunsInFlight: 1, PeakConcurrentRuns: 2, RunsQueued: 1,
			RunQueueBound: 16, RunsRejected: 2,
			DispatchMs: shard.DispatchMetrics{Count: 7, P50Ms: 0.5, P99Ms: 4.25},
			Epochs:     21, Migrations: 14,
			HeartbeatExpels: 1, HeartbeatTimeoutMs: 10000,
			PerWorker: []shard.WorkerMetrics{{
				ID: 1, Name: "w1", State: "leased", Run: 5, Islands: 2, Epochs: 21,
				MeanEpochMs: 3.25, MaxEpochMs: 11.5,
				Heartbeats: 42, LastSeenAgeMs: 120.5,
			}},
		},
		Runtime: obs.RuntimeStats{
			Goroutines: 12, HeapAllocBytes: 1 << 20, HeapSysBytes: 4 << 20,
			HeapObjects: 2048, NextGCBytes: 2 << 20, GCCycles: 3,
			GCPauseTotalMS: 0.75,
		},
	}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != metricsGolden {
		t.Errorf("/metrics JSON shape drifted:\n got: %s\nwant: %s", got, metricsGolden)
	}
}

// TestLiveMetricsServeGoldenKeys spot-checks that a real daemon's
// /metrics and /cluster documents carry exactly the pinned top-level
// keys — catching a handler that stops using MetricsSnapshot as much as
// a renamed field.
func TestLiveMetricsServeGoldenKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	// "cluster" is omitempty and absent on a non-coordinator daemon.
	var want []string
	for _, line := range strings.Split(metricsGolden, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, `"`) || !strings.HasSuffix(strings.SplitN(line, ":", 2)[0], `"`) {
			continue
		}
		key := strings.Trim(strings.SplitN(line, ":", 2)[0], `" `)
		switch key {
		case "uptime_seconds", "requests_total", "layer_requests", "cache_hits",
			"cache_misses", "cache_hit_rate", "cache_entries", "cache_bytes",
			"cache_oversize_rejects", "warm_hits", "warm_misses",
			"warm_tours_saved", "warm_entries", "warm_bytes",
			"coalesced", "errors", "timeouts",
			"tours_run", "in_flight", "latency_ms", "distributed_runs",
			"distributed_fallbacks", "sse_streams", "sse_active",
			"bulk_requests", "bulk_jobs", "jobs", "events", "runtime":
			want = append(want, key)
		}
	}
	for _, key := range want {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing pinned key %q", key)
		}
	}
	if len(doc) != len(want) {
		got := make([]string, 0, len(doc))
		for k := range doc {
			got = append(got, k)
		}
		t.Errorf("/metrics has %d top-level keys, pinned %d: %v", len(doc), len(want), got)
	}
}

const clusterGolden = `{
  "workers": 1,
  "idle_workers": 1,
  "runs": 3,
  "run_errors": 0,
  "runs_in_flight": 0,
  "peak_concurrent_runs": 1,
  "runs_queued": 0,
  "run_queue_bound": 16,
  "runs_rejected": 0,
  "dispatch_ms": {
    "count": 3,
    "p50_ms": 0.25,
    "p99_ms": 1.5
  },
  "epochs": 9,
  "migrations": 6,
  "heartbeat_expels": 0,
  "heartbeat_timeout_ms": 10000,
  "per_worker": [
    {
      "id": 2,
      "name": "solo",
      "state": "idle",
      "islands": 4,
      "epochs": 9,
      "mean_epoch_ms": 0.5,
      "max_epoch_ms": 2,
      "heartbeats": 9,
      "last_seen_age_ms": 33
    }
  ]
}`

// TestClusterMetricsGoldenShape pins the /cluster document — the same
// struct the /metrics "cluster" block embeds. The idle worker's "run"
// field is absent (omitempty): lease attribution only renders while a
// run holds the worker.
func TestClusterMetricsGoldenShape(t *testing.T) {
	cm := shard.ClusterMetrics{
		Workers: 1, IdleWorkers: 1, Runs: 3, RunErrors: 0,
		PeakConcurrentRuns: 1, RunQueueBound: 16,
		DispatchMs: shard.DispatchMetrics{Count: 3, P50Ms: 0.25, P99Ms: 1.5},
		Epochs:     9, Migrations: 6,
		HeartbeatExpels: 0, HeartbeatTimeoutMs: 10000,
		PerWorker: []shard.WorkerMetrics{{
			ID: 2, Name: "solo", State: "idle", Islands: 4, Epochs: 9,
			MeanEpochMs: 0.5, MaxEpochMs: 2, Heartbeats: 9, LastSeenAgeMs: 33,
		}},
	}
	got, err := json.MarshalIndent(cm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != clusterGolden {
		t.Errorf("/cluster JSON shape drifted:\n got: %s\nwant: %s", got, clusterGolden)
	}
}
