package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"antlayer/internal/obs"
)

// getTrace fetches GET /traces/{id} and decodes the view.
func getTrace(t *testing.T, baseURL, id string) obs.TraceView {
	t.Helper()
	resp, err := http.Get(baseURL + "/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/%s: status %d", id, resp.StatusCode)
	}
	var v obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// spanCounts tallies a trace's spans by name.
func spanCounts(v obs.TraceView) map[string]int {
	counts := make(map[string]int)
	for _, sp := range v.Spans {
		counts[sp.Name]++
	}
	return counts
}

func TestLayerTraceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A well-formed inbound X-Request-ID is honored and echoed.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/layer?algo=lpl", strings.NewReader(demoDOT))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "my-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-trace-1" {
		t.Fatalf("X-Request-ID echo = %q, want my-trace-1", got)
	}

	v := getTrace(t, ts.URL, "my-trace-1")
	if !v.Finished {
		t.Error("trace not finished after the response")
	}
	counts := spanCounts(v)
	for _, name := range []string{"parse", "cache_lookup", "compute"} {
		if counts[name] == 0 {
			t.Errorf("miss trace lacks %q span: %v", name, counts)
		}
	}

	// The identical request hits the cache: its trace must show the
	// lookup but no compute (and record it without allocating — pinned in
	// internal/obs's zero-alloc test; here we pin the span shape).
	resp2, _ := postLayer(t, ts, "algo=lpl", demoDOT)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q", resp2.Header.Get("X-Cache"))
	}
	hitID := resp2.Header.Get("X-Request-ID")
	if hitID == "" || hitID == "my-trace-1" {
		t.Fatalf("minted trace ID = %q", hitID)
	}
	hit := spanCounts(getTrace(t, ts.URL, hitID))
	if hit["cache_lookup"] == 0 || hit["compute"] != 0 {
		t.Errorf("hit trace spans = %v, want cache_lookup and no compute", hit)
	}

	// A malformed inbound ID is replaced, never parroted back.
	req3, err := http.NewRequest(http.MethodPost, ts.URL+"/layer?algo=minwidth", strings.NewReader(demoDOT))
	if err != nil {
		t.Fatal(err)
	}
	req3.Header.Set("X-Request-ID", "bad id with spaces")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); !obs.ValidID(got) || strings.Contains(got, " ") {
		t.Errorf("malformed inbound ID answered %q", got)
	}
}

// TestDistributedTraceEndToEnd is the tentpole's acceptance shape: one
// distributed request over a real coordinator and two workers yields one
// trace holding the coordinator's scheduling spans and both workers'
// per-epoch spans.
func TestDistributedTraceEndToEnd(t *testing.T) {
	coord := testCluster(t, 2)
	_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})

	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/layer?algo=island&islands=4&tours=3&migration-interval=1&seed=9&distributed=true",
		strings.NewReader(demoDOT))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "dist-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	v := getTrace(t, ts.URL, "dist-trace")
	counts := spanCounts(v)
	for _, name := range []string{"parse", "admission", "lease", "epoch", "migrate", "assemble", "worker_epoch"} {
		if counts[name] == 0 {
			t.Errorf("distributed trace lacks %q span: %v", name, counts)
		}
	}
	if counts["admission"] != 1 || counts["lease"] != 1 || counts["assemble"] != 1 {
		t.Errorf("scheduling spans counted %v, want one admission/lease/assemble", counts)
	}
	workers := make(map[string]bool)
	for _, sp := range v.Spans {
		if sp.Name == "worker_epoch" {
			if sp.Worker == "" || sp.Epoch == 0 {
				t.Errorf("worker span missing attribution: %+v", sp)
			}
			workers[sp.Worker] = true
		}
	}
	if len(workers) != 2 {
		t.Errorf("worker spans from %d workers, want 2: %v", len(workers), workers)
	}
}

func TestTracesListEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		postLayer(t, ts, "algo=aco&tours=2&seed="+strconv.Itoa(i+1), demoDOT)
	}
	var doc struct {
		Traces []obs.TraceView `json:"traces"`
	}
	get := func(query string) []obs.TraceView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /traces%s: status %d", query, resp.StatusCode)
		}
		doc.Traces = nil
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Traces
	}
	all := get("")
	if len(all) != 3 {
		t.Fatalf("retained %d traces, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].DurMS < all[i].DurMS {
			t.Errorf("listing not slowest-first: %v then %v", all[i-1].DurMS, all[i].DurMS)
		}
	}
	if got := get("?limit=2"); len(got) != 2 {
		t.Errorf("limit=2 returned %d", len(got))
	}
	if got := get("?min_ms=999999"); len(got) != 0 {
		t.Errorf("min_ms filter returned %d", len(got))
	}
	// A min_ms that is not finite, or past what a Duration holds, would
	// convert to a bound that lists every trace.
	for _, bad := range []string{"?limit=-1", "?limit=x", "?min_ms=-2", "?min_ms=x", "?min_ms=NaN", "?min_ms=Inf", "?min_ms=1e300"} {
		resp, err := http.Get(ts.URL + "/traces" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /traces%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestTraceNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/traces/nope", "/traces/", "/traces/a/b"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestJobTraceFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs?algo=lpl", strings.NewReader(demoDOT))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "job-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var status jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") != "job-trace-1" || status.TraceID != "job-trace-1" {
		t.Fatalf("job trace not echoed: header %q, envelope %q",
			resp.Header.Get("X-Request-ID"), status.TraceID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		pollResp, err := http.Get(ts.URL + "/jobs/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		state := pollResp.Header.Get("X-Job-State")
		pollResp.Body.Close()
		if state == "done" {
			break
		}
		if state == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q", state)
		}
		time.Sleep(5 * time.Millisecond)
	}

	v := getTrace(t, ts.URL, "job-trace-1")
	if !v.Finished {
		t.Error("job trace not finished after the job settled")
	}
	counts := spanCounts(v)
	for _, name := range []string{"parse", "queue_wait", "compute"} {
		if counts[name] == 0 {
			t.Errorf("job trace lacks %q span: %v", name, counts)
		}
	}

	listResp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list jobList
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].TraceID != "job-trace-1" {
		t.Errorf("job listing lost the trace ID: %+v", list.Jobs)
	}
}

// promLine matches one sample of the text exposition format:
// name{optional labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*"(?:,[a-zA-Z0-9_]+="(?:[^"\\]|\\.)*")*\})? (-?[0-9.eE+]+|NaN)$`)

// parseProm lint-parses a Prometheus text page: every line must be a
// well-formed HELP, TYPE or sample line; every sample's family must have
// been declared by a TYPE; counters must end in _total or be flagged.
// Returns the samples keyed by full series (name plus label block).
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := make(map[string]string)
	samples := make(map[string]float64)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)) != 2 {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge") {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			types[parts[0]] = parts[1]
		default:
			m := promLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: not a valid sample: %q", i+1, line)
			}
			if _, ok := types[m[1]]; !ok {
				t.Errorf("line %d: series %q has no TYPE declaration", i+1, m[1])
			}
			if types[m[1]] == "counter" && !strings.HasSuffix(m[1], "_total") {
				t.Errorf("line %d: counter %q not named *_total", i+1, m[1])
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", i+1, m[3])
			}
			samples[m[1]+m[2]] = v
		}
	}
	return samples
}

// TestCancelledQueuedJobTraceFinished: a job cancelled while queued
// never runs its closure, so the queue's settle action must finish its
// trace; a live trace would keep growing and rank as the slowest in
// /traces.
func TestCancelledQueuedJobTraceFinished(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	_, running := postJob(t, ts, slowQuery+"&seed=1", slowGraph)
	resp, queued := postJob(t, ts, slowQuery+"&seed=2", slowGraph)
	if r := deleteJob(t, ts, queued.ID); r.Header.Get("X-Job-State") != "failed" {
		t.Fatalf("cancelled queued job answered state %q", r.Header.Get("X-Job-State"))
	}
	if v := getTrace(t, ts.URL, resp.Header.Get("X-Request-ID")); !v.Finished {
		t.Errorf("trace of the cancelled queued job is live (dur_ms %.1f)", v.DurMS)
	}
	pollUntilTerminal(t, ts, running.ID)
}

// postJobAs submits a job with the given X-Request-ID and checks the
// daemon traced it under that ID.
func postJobAs(t *testing.T, ts *httptest.Server, query, body, requestID string) jobStatusView {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs?"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status jobStatusView
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != requestID {
		t.Fatalf("X-Request-ID %q, want %q", got, requestID)
	}
	return status
}

// TestCancelFinishesOnlyItsJobTrace: two queued jobs sent with one
// X-Request-ID each own a trace, and GET /traces/{id} shows the newer.
// Cancelling a job finishes its own trace and no other: cancelling the
// older leaves the newer's trace live while that job waits, and
// cancelling the newer finishes it.
func TestCancelFinishesOnlyItsJobTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	_, blocker := postJob(t, ts, "format=edges&tours=1000000&ants=8", bigEdgeList(300)) // holds the worker
	const id = "shared-request-id"
	older := postJobAs(t, ts, "seed=2", demoDOT, id)
	newer := postJobAs(t, ts, "seed=3", demoDOT, id)
	if r := deleteJob(t, ts, older.ID); r.Header.Get("X-Job-State") != "failed" {
		t.Fatalf("cancelled queued job answered state %q", r.Header.Get("X-Job-State"))
	}
	if r, _ := getJob(t, ts, newer.ID); r.Header.Get("X-Job-State") != "queued" {
		t.Fatalf("newer job is %q, want queued", r.Header.Get("X-Job-State"))
	}
	if v := getTrace(t, ts.URL, id); v.Finished {
		t.Errorf("cancelling the older job finished the queued newer job's trace (dur_ms %.1f)", v.DurMS)
	}
	if r := deleteJob(t, ts, newer.ID); r.Header.Get("X-Job-State") != "failed" {
		t.Fatalf("cancelled queued job answered state %q", r.Header.Get("X-Job-State"))
	}
	if v := getTrace(t, ts.URL, id); !v.Finished {
		t.Errorf("trace of the cancelled newer job is live (dur_ms %.1f)", v.DurMS)
	}
	deleteJob(t, ts, blocker.ID)
	pollUntilTerminal(t, ts, blocker.ID)
}

// TestCloseFinishesJobTraces: Close fails a queued job without running
// it and cancels the running one; both traces end finished.
func TestCloseFinishesJobTraces(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	running := postJobAs(t, ts, "format=edges&tours=1000000&ants=8", bigEdgeList(300), "running-job")
	queued := postJobAs(t, ts, "seed=2", demoDOT, "queued-job")
	s.Close()
	for _, job := range []struct{ id, trace string }{{running.ID, "running-job"}, {queued.ID, "queued-job"}} {
		if r, view := getJob(t, ts, job.id); r.Header.Get("X-Job-State") != "failed" {
			t.Errorf("job %s after Close: state %q (%s)", job.id, r.Header.Get("X-Job-State"), view.raw)
		}
		if v := getTrace(t, ts.URL, job.trace); !v.Finished {
			t.Errorf("trace %s of a job Close failed is live (dur_ms %.1f)", job.trace, v.DurMS)
		}
	}
}

// TestPrometheusExposition drives a live daemon, scrapes both formats and
// checks the Prometheus page parses cleanly and mirrors the JSON
// snapshot's counters.
func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postLayer(t, ts, "algo=lpl", demoDOT)
	postLayer(t, ts, "algo=lpl", demoDOT) // one hit

	snap := mustMetrics(t, ts.URL)
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, string(page))

	for series, want := range map[string]float64{
		"daglayer_layer_requests_total":         float64(snap.LayerRequests),
		"daglayer_cache_hits_total":             float64(snap.CacheHits),
		"daglayer_cache_misses_total":           float64(snap.CacheMisses),
		"daglayer_cache_hit_ratio":              snap.CacheHitRate,
		"daglayer_tours_run_total":              float64(snap.ToursRun),
		"daglayer_job_queue_depth":              float64(snap.Jobs.Depth),
		"daglayer_latency_ms{quantile=\"0.5\"}": snap.Latency.P50,
	} {
		got, ok := samples[series]
		if !ok {
			t.Errorf("series %q missing from exposition", series)
		} else if got != want {
			t.Errorf("series %q = %v, JSON snapshot says %v", series, got, want)
		}
	}
	if _, ok := samples["daglayer_goroutines"]; !ok {
		t.Error("runtime gauges missing from exposition")
	}

	badResp, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml: status %d, want 400", badResp.StatusCode)
	}
}

// TestPrometheusClusterSeries: a coordinator daemon's exposition carries
// the cluster block with per-worker labeled series.
func TestPrometheusClusterSeries(t *testing.T) {
	coord := testCluster(t, 2)
	_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})
	postLayer(t, ts, "algo=island&islands=2&tours=2&migration-interval=1&seed=3&distributed=true", demoDOT)

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, string(page))
	if got := samples["daglayer_cluster_workers"]; got != 2 {
		t.Errorf("daglayer_cluster_workers = %v, want 2", got)
	}
	if got := samples["daglayer_cluster_runs_total"]; got != 1 {
		t.Errorf("daglayer_cluster_runs_total = %v, want 1", got)
	}
	for _, worker := range []string{"tw0", "tw1"} {
		series := `daglayer_cluster_worker_epochs_total{worker="` + worker + `"}`
		if v, ok := samples[series]; !ok || v < 1 {
			t.Errorf("per-worker series %s = %v (present=%v)", series, v, ok)
		}
	}
}

func TestPprofMountGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
