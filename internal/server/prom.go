package server

import (
	"io"

	"antlayer/internal/obs"
)

// writeProm renders a MetricsSnapshot in the Prometheus text exposition
// format (0.0.4). It is a pure function of the snapshot — the same
// counters /metrics serves as JSON, one series per scalar field, with the
// coordinator's per-worker rows becoming worker-labeled series — so the
// two formats can never drift (DESIGN.md §14 has the full mapping).
//
// Naming follows the Prometheus conventions: a `daglayer_` namespace,
// `_total` on monotonic counters, base units in the name (`_seconds`,
// `_bytes`); the JSON snapshot's millisecond quantiles stay milliseconds
// with an explicit `_ms` suffix rather than being rescaled, so a value
// seen in one format can be grepped in the other.
func writeProm(w io.Writer, m MetricsSnapshot) error {
	p := obs.NewProm(w)

	p.Family("daglayer_uptime_seconds", "gauge", "Seconds since the daemon started.")
	p.Value("daglayer_uptime_seconds", m.UptimeSeconds)
	p.Family("daglayer_requests_total", "counter", "HTTP requests served, all endpoints.")
	p.Value("daglayer_requests_total", float64(m.RequestsTotal))
	p.Family("daglayer_layer_requests_total", "counter", "POST /layer requests.")
	p.Value("daglayer_layer_requests_total", float64(m.LayerRequests))

	p.Family("daglayer_cache_hits_total", "counter", "Layer responses served from the result cache.")
	p.Value("daglayer_cache_hits_total", float64(m.CacheHits))
	p.Family("daglayer_cache_misses_total", "counter", "Layer responses computed and stored.")
	p.Value("daglayer_cache_misses_total", float64(m.CacheMisses))
	p.Family("daglayer_cache_hit_ratio", "gauge", "Hits over hits plus misses.")
	p.Value("daglayer_cache_hit_ratio", m.CacheHitRate)
	p.Family("daglayer_cache_entries", "gauge", "Bodies the result cache currently holds.")
	p.Value("daglayer_cache_entries", float64(m.CacheEntries))
	p.Family("daglayer_cache_bytes", "gauge", "Body bytes the result cache currently holds.")
	p.Value("daglayer_cache_bytes", float64(m.CacheBytes))
	p.Family("daglayer_cache_oversize_rejects_total", "counter", "Bodies refused cache admission for size.")
	p.Value("daglayer_cache_oversize_rejects_total", float64(m.CacheOversizeRejects))
	p.Family("daglayer_coalesced_total", "counter", "Requests served by an identical in-flight computation.")
	p.Value("daglayer_coalesced_total", float64(m.Coalesced))

	p.Family("daglayer_warm_hits_total", "counter", "Requests served through a warm-start lineage.")
	p.Value("daglayer_warm_hits_total", float64(m.WarmHits))
	p.Family("daglayer_warm_misses_total", "counter", "Warm-eligible requests that found no usable state.")
	p.Value("daglayer_warm_misses_total", float64(m.WarmMisses))
	p.Family("daglayer_warm_tours_saved_total", "counter", "Colony tours avoided by warm starts.")
	p.Value("daglayer_warm_tours_saved_total", float64(m.WarmToursSaved))
	p.Family("daglayer_warm_entries", "gauge", "States the warm cache currently holds.")
	p.Value("daglayer_warm_entries", float64(m.WarmEntries))
	p.Family("daglayer_warm_bytes", "gauge", "Resident bytes of the warm cache.")
	p.Value("daglayer_warm_bytes", float64(m.WarmBytes))

	p.Family("daglayer_errors_total", "counter", "Requests a handler refused with a 4xx or 5xx status.")
	p.Value("daglayer_errors_total", float64(m.Errors))
	p.Family("daglayer_timeouts_total", "counter", "Layer requests answered 504.")
	p.Value("daglayer_timeouts_total", float64(m.Timeouts))
	p.Family("daglayer_tours_run_total", "counter", "Ant colony tours executed.")
	p.Value("daglayer_tours_run_total", float64(m.ToursRun))
	p.Family("daglayer_in_flight", "gauge", "Layer requests currently computing.")
	p.Value("daglayer_in_flight", float64(m.InFlight))

	p.Family("daglayer_latency_observations_total", "counter", "Layer latencies observed.")
	p.Value("daglayer_latency_observations_total", float64(m.Latency.Count))
	p.Family("daglayer_latency_ms", "gauge", "Recent /layer latency quantiles in milliseconds.")
	p.ValueL("daglayer_latency_ms", m.Latency.P50, "quantile", "0.5")
	p.ValueL("daglayer_latency_ms", m.Latency.P99, "quantile", "0.99")

	p.Family("daglayer_distributed_runs_total", "counter", "Island runs served by the worker fleet.")
	p.Value("daglayer_distributed_runs_total", float64(m.DistributedRuns))
	p.Family("daglayer_distributed_fallbacks_total", "counter", "Distributed requests computed in-process.")
	p.Value("daglayer_distributed_fallbacks_total", float64(m.DistributedFallbacks))

	p.Family("daglayer_sse_streams_total", "counter", "Event streams opened.")
	p.Value("daglayer_sse_streams_total", float64(m.SSEStreams))
	p.Family("daglayer_sse_active", "gauge", "Event streams currently connected.")
	p.Value("daglayer_sse_active", float64(m.SSEActive))
	p.Family("daglayer_bulk_requests_total", "counter", "POST /jobs/bulk requests.")
	p.Value("daglayer_bulk_requests_total", float64(m.BulkRequests))
	p.Family("daglayer_bulk_jobs_total", "counter", "Jobs admitted through bulk intake lines.")
	p.Value("daglayer_bulk_jobs_total", float64(m.BulkJobs))

	p.Family("daglayer_jobs_submitted_total", "counter", "Jobs admitted to the async queue.")
	p.Value("daglayer_jobs_submitted_total", float64(m.Jobs.Submitted))
	p.Family("daglayer_jobs_rejected_total", "counter", "Job submissions refused with queue-full.")
	p.Value("daglayer_jobs_rejected_total", float64(m.Jobs.Rejected))
	p.Family("daglayer_jobs_queued", "gauge", "Jobs waiting for a worker.")
	p.Value("daglayer_jobs_queued", float64(m.Jobs.Queued))
	p.Family("daglayer_jobs_running", "gauge", "Jobs currently executing.")
	p.Value("daglayer_jobs_running", float64(m.Jobs.Running))
	p.Family("daglayer_jobs_done_total", "counter", "Jobs finished successfully.")
	p.Value("daglayer_jobs_done_total", float64(m.Jobs.Done))
	p.Family("daglayer_jobs_failed_total", "counter", "Jobs finished in failure (cancellations included).")
	p.Value("daglayer_jobs_failed_total", float64(m.Jobs.Failed))
	p.Family("daglayer_jobs_canceled_total", "counter", "Jobs canceled by clients.")
	p.Value("daglayer_jobs_canceled_total", float64(m.Jobs.Canceled))
	p.Family("daglayer_job_queue_depth", "gauge", "Backlog bound the job queue enforces.")
	p.Value("daglayer_job_queue_depth", float64(m.Jobs.Depth))
	p.Family("daglayer_job_workers", "gauge", "Workers draining the job queue.")
	p.Value("daglayer_job_workers", float64(m.Jobs.Workers))

	p.Family("daglayer_events_published_total", "counter", "Job lifecycle events published.")
	p.Value("daglayer_events_published_total", float64(m.Events.Published))
	p.Family("daglayer_events_last_seq", "gauge", "Sequence number of the newest event.")
	p.Value("daglayer_events_last_seq", float64(m.Events.LastSeq))
	p.Family("daglayer_event_subscribers", "gauge", "Current event subscriptions.")
	p.Value("daglayer_event_subscribers", float64(m.Events.Subscribers))
	p.Family("daglayer_event_ring_len", "gauge", "Events the replay ring retains.")
	p.Value("daglayer_event_ring_len", float64(m.Events.RingLen))

	p.Family("daglayer_goroutines", "gauge", "Goroutines currently live.")
	p.Value("daglayer_goroutines", float64(m.Runtime.Goroutines))
	p.Family("daglayer_heap_alloc_bytes", "gauge", "Bytes of live heap objects.")
	p.Value("daglayer_heap_alloc_bytes", float64(m.Runtime.HeapAllocBytes))
	p.Family("daglayer_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	p.Value("daglayer_heap_sys_bytes", float64(m.Runtime.HeapSysBytes))
	p.Family("daglayer_heap_objects", "gauge", "Live heap objects.")
	p.Value("daglayer_heap_objects", float64(m.Runtime.HeapObjects))
	p.Family("daglayer_next_gc_bytes", "gauge", "Heap size that triggers the next GC cycle.")
	p.Value("daglayer_next_gc_bytes", float64(m.Runtime.NextGCBytes))
	p.Family("daglayer_gc_cycles_total", "counter", "Completed GC cycles.")
	p.Value("daglayer_gc_cycles_total", float64(m.Runtime.GCCycles))
	p.Family("daglayer_gc_pause_ms_total", "counter", "Cumulative GC stop-the-world pause, milliseconds.")
	p.Value("daglayer_gc_pause_ms_total", m.Runtime.GCPauseTotalMS)

	if c := m.Cluster; c != nil {
		p.Family("daglayer_cluster_workers", "gauge", "Workers registered with the coordinator.")
		p.Value("daglayer_cluster_workers", float64(c.Workers))
		p.Family("daglayer_cluster_idle_workers", "gauge", "Registered workers not leased to a run.")
		p.Value("daglayer_cluster_idle_workers", float64(c.IdleWorkers))
		p.Family("daglayer_cluster_runs_total", "counter", "Distributed runs completed.")
		p.Value("daglayer_cluster_runs_total", float64(c.Runs))
		p.Family("daglayer_cluster_run_errors_total", "counter", "Distributed runs that failed.")
		p.Value("daglayer_cluster_run_errors_total", float64(c.RunErrors))
		p.Family("daglayer_cluster_runs_in_flight", "gauge", "Runs holding worker leases right now.")
		p.Value("daglayer_cluster_runs_in_flight", float64(c.RunsInFlight))
		p.Family("daglayer_cluster_peak_concurrent_runs", "gauge", "Concurrency high-water mark.")
		p.Value("daglayer_cluster_peak_concurrent_runs", float64(c.PeakConcurrentRuns))
		p.Family("daglayer_cluster_runs_queued", "gauge", "Admitted runs awaiting dispatch.")
		p.Value("daglayer_cluster_runs_queued", float64(c.RunsQueued))
		p.Family("daglayer_cluster_run_queue_bound", "gauge", "Admission queue bound.")
		p.Value("daglayer_cluster_run_queue_bound", float64(c.RunQueueBound))
		p.Family("daglayer_cluster_runs_rejected_total", "counter", "Admissions refused with queue-full.")
		p.Value("daglayer_cluster_runs_rejected_total", float64(c.RunsRejected))
		p.Family("daglayer_cluster_dispatch_observations_total", "counter", "Dispatch waits observed.")
		p.Value("daglayer_cluster_dispatch_observations_total", float64(c.DispatchMs.Count))
		p.Family("daglayer_cluster_dispatch_ms", "gauge", "Recent queue-to-lease wait quantiles, milliseconds.")
		p.ValueL("daglayer_cluster_dispatch_ms", c.DispatchMs.P50Ms, "quantile", "0.5")
		p.ValueL("daglayer_cluster_dispatch_ms", c.DispatchMs.P99Ms, "quantile", "0.99")
		p.Family("daglayer_cluster_epochs_total", "counter", "Epoch barriers completed across all runs.")
		p.Value("daglayer_cluster_epochs_total", float64(c.Epochs))
		p.Family("daglayer_cluster_migrations_total", "counter", "Elite migrations routed around the ring.")
		p.Value("daglayer_cluster_migrations_total", float64(c.Migrations))
		p.Family("daglayer_cluster_heartbeat_expels_total", "counter", "Workers expelled for going silent past the heartbeat timeout.")
		p.Value("daglayer_cluster_heartbeat_expels_total", float64(c.HeartbeatExpels))
		p.Family("daglayer_cluster_heartbeat_timeout_ms", "gauge", "Silence budget before a worker is expelled.")
		p.Value("daglayer_cluster_heartbeat_timeout_ms", c.HeartbeatTimeoutMs)

		if len(c.PerWorker) > 0 {
			p.Family("daglayer_cluster_worker_leased", "gauge", "1 when the worker is leased to a run, 0 when idle.")
			for _, wm := range c.PerWorker {
				leased := 0.0
				if wm.State != "idle" {
					leased = 1
				}
				p.ValueL("daglayer_cluster_worker_leased", leased, "worker", wm.Name)
			}
			p.Family("daglayer_cluster_worker_epochs_total", "counter", "Epoch barriers answered, per worker.")
			for _, wm := range c.PerWorker {
				p.ValueL("daglayer_cluster_worker_epochs_total", float64(wm.Epochs), "worker", wm.Name)
			}
			p.Family("daglayer_cluster_worker_mean_epoch_ms", "gauge", "Mean barrier wait, per worker, milliseconds.")
			for _, wm := range c.PerWorker {
				p.ValueL("daglayer_cluster_worker_mean_epoch_ms", wm.MeanEpochMs, "worker", wm.Name)
			}
			p.Family("daglayer_cluster_worker_max_epoch_ms", "gauge", "Worst barrier wait, per worker, milliseconds.")
			for _, wm := range c.PerWorker {
				p.ValueL("daglayer_cluster_worker_max_epoch_ms", wm.MaxEpochMs, "worker", wm.Name)
			}
			p.Family("daglayer_cluster_worker_heartbeats_total", "counter", "Liveness frames received, per worker.")
			for _, wm := range c.PerWorker {
				p.ValueL("daglayer_cluster_worker_heartbeats_total", float64(wm.Heartbeats), "worker", wm.Name)
			}
			p.Family("daglayer_cluster_worker_last_seen_age_ms", "gauge", "Silence since the worker's last frame, milliseconds.")
			for _, wm := range c.PerWorker {
				p.ValueL("daglayer_cluster_worker_last_seen_age_ms", wm.LastSeenAgeMs, "worker", wm.Name)
			}
		}
	}

	return p.Err()
}
