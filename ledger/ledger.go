package main

import (
	"sort"

	"antlayer/internal/obs"
)

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd names the metrics an untraced run reports, in order, with
// their units; BENCHMARK.json lists the same set.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
	{"quality_hw", "hw"},
}

// perLayer names the metrics a traced run reports, in order, with their
// units; BENCHMARK.json lists the same set. A layer a workload never
// reaches reports 0.
var perLayer = []struct{ name, unit string }{
	{"dot.decode_us", "us"},
	{"dot.body_bytes", "bytes"},
	{"server.parse_us", "us"},
	{"server.warm_plan_us", "us"},
	{"server.cache_lookup_us", "us"},
	{"server.queue_wait_us", "us"},
	{"server.compute_us", "us"},
	{"server.render_us", "us"},
	{"server.self_us", "us"},
	{"net.overhead_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"core.init_us", "us"},
	{"core.tour_us", "us"},
	{"core.walks_per_s", "1/s"},
	{"core.finalize_us", "us"},
	{"core.remap_us", "us"},
	{"core.tours_per_req", "count"},
	{"core.wasted_tour_ratio", "ratio"},
	{"core.state_bytes", "bytes"},
	{"warm.hit_ratio", "ratio"},
	{"warm.tours_saved_per_req", "count"},
	{"shard.admission_us", "us"},
	{"shard.lease_us", "us"},
	{"shard.epoch_us", "us"},
	{"shard.worker_epoch_us", "us"},
	{"shard.barrier_wait_us", "us"},
	{"shard.migrate_us", "us"},
	{"shard.assemble_us", "us"},
	{"shard.overhead_us", "us"},
	{"island.epochs_per_run", "count"},
	{"sugiyama.draw_us", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"client.latency_p99_ms", "ms"},
	{"client.requests", "count"},
}

// named turns a name → value map into metrics in the order of defs.
func named(defs []struct{ name, unit string }, values map[string]float64) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{d.name, d.unit, values[d.name]}
	}
	return out
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(dr *drive) []metric {
	rps, p50, p90, cpu := dr.timed.windowStats()
	return named(endToEnd, map[string]float64{
		"throughput_rps": rps,
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"cpu_ms_per_req": cpu,
		"rss_peak_mb":    dr.rssMiB,
		"setup_s":        percentile(dr.setupS, 0.50),
		"quality_hw":     dr.quality,
	})
}

// perLayerMetrics folds a traced run, the untraced run it is compared
// with, and the in-process replay into the per-layer ledger. Span-derived
// times are means per traced request (0 where a request has no such
// span), so parse, warm plan, cache lookup, queue wait, compute, self
// and net.overhead_us add up to the mean client latency (render and the
// shard spans nest inside compute); replay times are medians per call.
func perLayerMetrics(plain, traced *drive, rp replayStats) []metric {
	v := map[string]float64{}
	var overhead []float64
	for _, tv := range traced.traces {
		for name, us := range foldTrace(tv) {
			v[name] += us
		}
		overhead = append(overhead, traced.timed.byID[tv.ID]*1000-tv.DurMS*1000)
	}
	for name := range v {
		v[name] /= float64(len(traced.traces))
	}
	v["net.overhead_us"] = mean(overhead)
	if len(rp.island) > 0 {
		v["shard.overhead_us"] = v["server.compute_us"] - mean(rp.island)
	}

	d := traced.delta
	v["server.cache_hit_ratio"] = ratio(d.CacheHits, d.CacheHits+d.CacheMisses)
	v["warm.hit_ratio"] = ratio(d.WarmHits, d.WarmHits+d.WarmMisses)
	v["warm.tours_saved_per_req"] = ratio(d.WarmToursSaved, d.LayerRequests)
	v["core.tours_per_req"] = ratio(d.ToursRun, d.LayerRequests)

	v["dot.decode_us"] = percentile(rp.decode, 0.5)
	v["dot.body_bytes"] = mean(rp.bodyBytes)
	v["core.init_us"] = percentile(rp.init, 0.5)
	v["core.tour_us"] = percentile(rp.tour, 0.5)
	if rp.stepUS > 0 {
		v["core.walks_per_s"] = float64(rp.walks) / (rp.stepUS / 1e6)
	}
	v["core.finalize_us"] = percentile(rp.finalize, 0.5)
	v["core.remap_us"] = percentile(rp.remap, 0.5)
	v["core.wasted_tour_ratio"] = ratio(int64(rp.toursWasted), int64(rp.toursRun))
	v["core.state_bytes"] = percentile(rp.stateBytes, 0.5)
	v["sugiyama.draw_us"] = percentile(rp.draw, 0.5)

	base, _, _, _ := plain.timed.windowStats()
	if base > 0 {
		withTraces, _, _, _ := traced.timed.windowStats()
		v["obs.trace_overhead_pct"] = (base - withTraces) / base * 100
	}
	v["client.latency_p99_ms"] = percentile(plain.timed.latMS, 0.99)
	v["client.requests"] = float64(len(plain.timed.latMS))
	return named(perLayer, v)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanMetric maps the daemon's span names onto ledger entries; epoch
// and worker_epoch spans are folded separately.
var spanMetric = map[string]string{
	"parse":        "server.parse_us",
	"warm":         "server.warm_plan_us",
	"cache_lookup": "server.cache_lookup_us",
	"queue_wait":   "server.queue_wait_us",
	"compute":      "server.compute_us",
	"render":       "server.render_us",
	"admission":    "shard.admission_us",
	"lease":        "shard.lease_us",
	"migrate":      "shard.migrate_us",
	"assemble":     "shard.assemble_us",
}

// foldTrace splits one request trace into ledger entries (µs, except
// the epoch count). server.self_us is the request's own time: its
// duration minus the part its spans cover. Per epoch, the slowest
// worker's epoch is the compute the barrier waited for, and the rest of
// the coordinator's epoch span is barrier wait.
func foldTrace(tv obs.TraceView) map[string]float64 {
	out := map[string]float64{}
	epoch := map[int]int64{}
	slowest := map[int]int64{}
	for _, s := range tv.Spans {
		switch s.Name {
		case "epoch":
			epoch[s.Epoch] += s.DurUS
		case "worker_epoch":
			slowest[s.Epoch] = max(slowest[s.Epoch], s.DurUS)
		default:
			if name, ok := spanMetric[s.Name]; ok {
				out[name] += float64(s.DurUS)
			}
		}
	}
	for e, d := range epoch {
		out["island.epochs_per_run"]++
		out["shard.epoch_us"] += float64(d)
		out["shard.worker_epoch_us"] += float64(slowest[e])
		out["shard.barrier_wait_us"] += float64(max(d-slowest[e], 0))
	}
	out["server.self_us"] = selfTime(tv.DurMS*1000, tv.Spans)
	return out
}

// selfTime is a span's duration minus the length of the union of its
// children's intervals, clipped to the span: overlapping and nested
// children are covered once.
func selfTime(durUS float64, children []obs.Span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo := max(float64(c.StartUS), 0)
		hi := min(float64(c.StartUS+c.DurUS), durUS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, 0.0
	for _, x := range ivs {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			covered += x.hi - end
			end = x.hi
		}
	}
	return durUS - covered
}
