package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs every workload for half a second against a freshly
// built daemon, then one traced run of the distributed workload, and
// checks that every metric is printed and every answer was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	bin, err := buildDaglayer(context.Background(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	runLedger := func(args ...string) line {
		t.Helper()
		var out, errs bytes.Buffer
		if code := run(append([]string{"-daglayer", bin, "-seconds", "0.5"}, args...), &out, &errs); code != 0 {
			t.Fatalf("ledger %v: exit %d\n%s\n%s", args, code, out.String(), errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var l line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out.String())
		}
		if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
			t.Fatalf("ledger %v: correct=%t attempted=%d failed=%d", args, l.Correct, l.Attempted, l.Failed)
		}
		return l
	}

	all := runLedger()
	for _, w := range workloadNames {
		for _, m := range endToEnd {
			got, ok := all.Metrics[w+"/"+m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 {
				t.Errorf("%s/%s: got %+v (present %t), want a positive value in %s", w, m.name, got, ok, m.unit)
			}
		}
	}

	traced := runLedger("-workload", "distributed", "-trace", "1")
	for _, m := range perLayer {
		if got, ok := traced.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s: got %+v (present %t), want unit %s", m.name, got, ok, m.unit)
		}
	}
	for _, name := range []string{"server.compute_us", "shard.epoch_us", "shard.worker_epoch_us", "island.epochs_per_run", "core.tour_us", "client.requests"} {
		if traced.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g on the distributed workload, want > 0", name, traced.Metrics[name].Value)
		}
	}
}
