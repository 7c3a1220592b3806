package main

import (
	"encoding/json"
	"os"
	"testing"

	"antlayer/internal/obs"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	children := []obs.Span{
		{Name: "a", StartUS: 10, DurUS: 20},  // [10, 30]
		{Name: "b", StartUS: 20, DurUS: 20},  // [20, 40] overlaps a: covered once
		{Name: "c", StartUS: 25, DurUS: 5},   // nested in a
		{Name: "d", StartUS: 50, DurUS: 10},  // [50, 60]
		{Name: "e", StartUS: 95, DurUS: 20},  // clipped to [95, 100]
		{Name: "f", StartUS: 120, DurUS: 10}, // outside the parent
	}
	// Covered: [10, 40] + [50, 60] + [95, 100] = 45 of 100.
	if got := selfTime(100, children); got != 55 {
		t.Fatalf("selfTime = %g, want 55", got)
	}
	if got := selfTime(100, nil); got != 100 {
		t.Fatalf("selfTime with no children = %g, want 100", got)
	}
}

func TestFoldTraceSplitsEpochsIntoWorkAndBarrierWait(t *testing.T) {
	tv := obs.TraceView{
		DurMS: 1, // 1000 µs
		Spans: []obs.Span{
			{Name: "parse", StartUS: 0, DurUS: 40},
			{Name: "compute", StartUS: 100, DurUS: 800},
			{Name: "epoch", Epoch: 1, StartUS: 100, DurUS: 300},
			{Name: "worker_epoch", Worker: "w1", Epoch: 1, StartUS: 110, DurUS: 200},
			{Name: "worker_epoch", Worker: "w2", Epoch: 1, StartUS: 110, DurUS: 260},
			{Name: "migrate", Epoch: 1, StartUS: 400, DurUS: 10},
			{Name: "epoch", Epoch: 2, StartUS: 410, DurUS: 100},
			// A worker epoch longer than the coordinator's barrier (clock
			// skew of one network hop) waits for nothing.
			{Name: "worker_epoch", Worker: "w1", Epoch: 2, StartUS: 405, DurUS: 120},
			{Name: "unknown", StartUS: 950, DurUS: 10},
		},
	}
	got := foldTrace(tv)
	want := map[string]float64{
		"server.parse_us":       40,
		"server.compute_us":     800,
		"shard.migrate_us":      10,
		"shard.epoch_us":        400,
		"shard.worker_epoch_us": 380, // 260 + 120: the slowest worker per epoch
		"shard.barrier_wait_us": 40,  // (300 − 260) + max(100 − 120, 0)
		"island.epochs_per_run": 2,
		"server.self_us":        1000 - 40 - 800 - 10, // every span's interval counts
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %g, want %g", name, got[name], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded %d entries, want %d: %v", len(got), len(want), got)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics the benchmark prints, with the same units.
func TestBenchmarkJSONMatchesTheMetricsPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		spec []entry
		defs []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, e := range c.spec {
			if e.Name != c.defs[i].name || e.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", c.kind, i, e.Name, e.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
