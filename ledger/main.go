// Command ledger is the repository's end-to-end benchmark: it builds and
// spawns the real daglayer process tree on loopback, drives POST /layer
// with a closed loop of two clients on four workloads, checks every
// answer, and prints each end-to-end metric with its unit. A traced run
// (-trace 1) splits the requests across the modules instead — dot,
// server, core, shard/island, sugiyama — from the daemon's /traces spans,
// /metrics deltas and an in-process replay. See README.md.
//
// Usage, from the repository root:
//
//	bash ledger/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-runs n] [-record file]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// answer was correct, 1 when a check failed, 2 when the benchmark could
// not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one run of one workload.
type result struct {
	tally
	metrics  []metric
	stealPct float64 // host CPU stolen while measuring
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("workload", "", "run only this workload (default: all of "+strings.Join(workloadNames, ", ")+")")
		seed    = fs.Int64("seed", 7, "seed every input is generated from")
		seconds = fs.Float64("seconds", 10, "length of each timed phase in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "repeat the untraced run and print each metric's median, quartiles and spread")
		bin     = fs.String("daglayer", "", "prebuilt daglayer binary (default: build one from this checkout)")
		record  = fs.String("record", "", "also run each workload traced once and write every metric with its provenance to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ledger:", err)
		return 2
	}
	names := workloadNames
	if *only != "" {
		names = []string{*only}
	}
	switch {
	case *trace != 0 && *trace != 1:
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	case *runs < 1:
		return fail(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	case *seconds <= 0:
		return fail(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	case *record != "" && *trace == 1:
		return fail(fmt.Errorf("-record adds the traced runs itself; use it with -trace 0"))
	}
	for _, name := range names {
		if _, err := newWorkload(name, *seed); err != nil {
			return fail(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *bin == "" {
		dir, err := os.MkdirTemp("", "ledger")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		if *bin, err = buildDaglayer(ctx, dir); err != nil {
			return fail(err)
		}
	}
	cfg := config{bin: *bin, seed: *seed, seconds: *seconds}

	total := tally{}
	summaries := map[string][]summary{}
	rec := newRecord(cfg, *runs)
	for _, name := range names {
		var all []result
		for k := 0; k < *runs; k++ {
			res, err := measure(ctx, cfg, name, *trace == 1)
			if err != nil {
				return fail(err)
			}
			printResult(stdout, name, cfg, res)
			total.add(res.tally)
			all = append(all, res)
		}
		sum := summarize(all)
		if *runs > 1 {
			printSpread(stdout, name, *runs, sum)
		}
		summaries[name] = sum
		if *record != "" {
			traced, err := measure(ctx, cfg, name, true)
			if err != nil {
				return fail(err)
			}
			total.add(traced.tally)
			rec.add(name, sum, traced)
		}
	}
	if *record != "" {
		if err := rec.write(*bin, *record); err != nil {
			return fail(err)
		}
	}
	for _, n := range total.notes {
		fmt.Fprintln(stderr, "ledger: failed:", n)
	}
	if err := printJSON(stdout, names, total, summaries); err != nil {
		return fail(err)
	}
	if total.failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload once. Untraced, that is the end-to-end run.
// Traced, it is an untraced and a traced pass of half the length each
// (for the tracing overhead) followed by the in-process replay.
func measure(ctx context.Context, cfg config, name string, traced bool) (result, error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return result{}, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !traced {
		dr, err := driveWorkload(ctx, cfg.bin, w, dur, false, setupRuns)
		if err != nil {
			return result{}, err
		}
		return result{dr.tally, endToEndMetrics(dr), dr.stealPct}, nil
	}
	// The two passes share the run's length, so a traced run takes as
	// long as an untraced one.
	plain, err := driveWorkload(ctx, cfg.bin, w, dur/2, false, 1)
	if err != nil {
		return result{}, err
	}
	tr, err := driveWorkload(ctx, cfg.bin, w, dur/2, true, 1)
	if err != nil {
		return result{}, err
	}
	rp, err := replayWorkload(ctx, w)
	if err != nil {
		return result{}, fmt.Errorf("%s: replay: %w", name, err)
	}
	t := plain.tally
	t.add(tr.tally)
	return result{t, perLayerMetrics(plain, tr, rp), (plain.stealPct + tr.stealPct) / 2}, nil
}

// buildDaglayer builds cmd/daglayer of the enclosing repository into
// dir. It runs from the benchmark's directory, as go test and go run do.
func buildDaglayer(ctx context.Context, dir string) (string, error) {
	out, err := filepath.Abs(filepath.Join(dir, "daglayer"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/daglayer")
	cmd.Dir = ".."
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building daglayer: %v\n%s", err, msg)
	}
	return out, nil
}

func printResult(w io.Writer, name string, cfg config, res result) {
	fmt.Fprintf(w, "%s (seed %d, %gs): %d requests, %d failed, host CPU stolen %.1f%%\n", name, cfg.seed, cfg.seconds, res.attempted, res.failed, res.stealPct)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// summary is a metric over repeated runs: its median as the value, and
// its quartiles.
type summary struct {
	metric
	q1, q3 float64
}

func summarize(all []result) []summary {
	out := make([]summary, len(all[0].metrics))
	for i, m := range all[0].metrics {
		vals := make([]float64, len(all))
		for k, r := range all {
			vals[k] = r.metrics[i].value
		}
		q1, med, q3 := quartiles(vals)
		out[i] = summary{metric{m.name, m.unit, med}, q1, q3}
	}
	return out
}

func printSpread(w io.Writer, name string, runs int, sum []summary) {
	fmt.Fprintf(w, "%s over %d runs: median [q1, q3] spread\n", name, runs)
	for _, s := range sum {
		spread := 0.0
		if s.value != 0 {
			spread = 100 * (s.q3 - s.q1) / s.value
		}
		fmt.Fprintf(w, "  %-26s %14.4f [%.4f, %.4f] %5.1f%% %s\n", s.name, s.value, s.q1, s.q3, spread, s.unit)
	}
}

// printJSON prints the result line: each metric's median over the runs.
// With several workloads every metric name is prefixed by its
// workload's.
func printJSON(w io.Writer, names []string, t tally, summaries map[string][]summary) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, map[string]value{}}
	for _, name := range names {
		for _, m := range summaries[name] {
			key := m.name
			if len(names) > 1 {
				key = name + "/" + m.name
			}
			line.Metrics[key] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// record is a trajectory record: every metric of every workload, with
// the provenance needed to compare it with a later one.
type record struct {
	Provenance struct {
		Build      string  `json:"build"`
		Go         string  `json:"go"`
		CPU        string  `json:"cpu"`
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Runs       int     `json:"runs"`
		Date       string  `json:"date"`
	} `json:"provenance"`
	Workloads map[string]recordWorkload `json:"workloads"`
}

type recordWorkload struct {
	EndToEnd map[string]recordValue `json:"end_to_end"`
	PerLayer map[string]recordValue `json:"per_layer"`
}

type recordValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
}

func newRecord(cfg config, runs int) *record {
	r := &record{Workloads: map[string]recordWorkload{}}
	p := &r.Provenance
	p.Go = runtime.Version()
	p.NProc = runtime.NumCPU()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	p.Seed = cfg.seed
	p.Seconds = cfg.seconds
	p.Runs = runs
	p.Date = time.Now().UTC().Format(time.RFC3339)
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return r
}

// add files a workload's untraced runs and its traced run.
func (r *record) add(name string, untraced []summary, traced result) {
	rw := recordWorkload{EndToEnd: map[string]recordValue{}, PerLayer: map[string]recordValue{}}
	for _, s := range untraced {
		rw.EndToEnd[s.name] = recordValue{Value: s.value, Unit: s.unit, Q1: &s.q1, Q3: &s.q3}
	}
	for _, m := range traced.metrics {
		rw.PerLayer[m.name] = recordValue{Value: m.value, Unit: m.unit}
	}
	r.Workloads[name] = rw
}

// write stamps the build the record measured and writes the file.
func (r *record) write(bin, path string) error {
	out, err := exec.Command(bin, "version").Output()
	if err != nil {
		return fmt.Errorf("%s version: %w", bin, err)
	}
	r.Provenance.Build = strings.TrimSpace(string(out))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
