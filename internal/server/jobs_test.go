package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, jobStatusView) {
	t.Helper()
	url := ts.URL + "/jobs"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status jobStatusView
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &status)
	status.raw = data
	return resp, status
}

// jobStatusView decodes both the status envelope and (for done jobs) the
// /layer body.
type jobStatusView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Poll  string `json:"poll"`
	raw   []byte
}

func getJob(t *testing.T, ts *httptest.Server, id string) (*http.Response, jobStatusView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status jobStatusView
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &status)
	status.raw = data
	return resp, status
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// pollUntilTerminal polls GET /jobs/{id} until the X-Job-State header
// reports a terminal state.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, id string) (*http.Response, jobStatusView) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, status := getJob(t, ts, id)
		state := resp.Header.Get("X-Job-State")
		if state == "done" || state == "failed" {
			return resp, status
		}
		if state != "queued" && state != "running" {
			t.Fatalf("job %s in unexpected state %q", id, state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 10s", id, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsSubmitPollDone covers the happy path end to end: 202 + id on
// submit, polling through to done, and a done body byte-identical to what
// a synchronous /layer of the same request serves.
func TestJobsSubmitPollDone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, status := postJob(t, ts, "seed=5&tours=3", demoDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", resp.StatusCode, status.raw)
	}
	if status.ID == "" || status.State != "queued" || status.Poll != "/jobs/"+status.ID {
		t.Fatalf("submit body: %+v", status)
	}

	final, view := pollUntilTerminal(t, ts, status.ID)
	if got := final.Header.Get("X-Job-State"); got != "done" {
		t.Fatalf("job finished %q (%s)", got, view.raw)
	}

	// The same request served synchronously must produce the same bytes
	// (both paths share Compute and the cache).
	lresp, lbody := postLayer(t, ts, "seed=5&tours=3", demoDOT)
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("sync /layer status %d", lresp.StatusCode)
	}
	if !bytes.Equal(view.raw, lbody) {
		t.Fatalf("job body diverges from /layer body:\n%s\n%s", view.raw, lbody)
	}
	if lresp.Header.Get("X-Cache") != "hit" {
		t.Fatal("sync /layer after done job missed the shared cache")
	}
}

// TestJobsIslandAlgo runs an island job through the async path.
func TestJobsIslandAlgo(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, status := postJob(t, ts, "algo=island&islands=2&tours=2&migration-interval=1&seed=3", demoDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	_, view := pollUntilTerminal(t, ts, status.ID)
	var body struct {
		Algo       string `json:"algo"`
		BestIsland *int   `json:"best_island"`
		Islands    int    `json:"islands"`
		ToursRun   int    `json:"tours_run"`
	}
	if err := json.Unmarshal(view.raw, &body); err != nil {
		t.Fatalf("done body: %v\n%s", err, view.raw)
	}
	if body.Algo != "island" || body.BestIsland == nil || body.Islands != 2 || body.ToursRun != 4 {
		t.Fatalf("island job body: %+v (%s)", body, view.raw)
	}
}

// TestJobsCancellation covers DELETE: a long-running job cancelled
// mid-flight fails with the 499-style reason, through the colony's
// context plumbing.
func TestJobsCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	resp, status := postJob(t, ts, "format=edges&tours=1000000&ants=8", bigEdgeList(300))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	// Wait for the job to start computing so the cancel exercises the
	// running path, not the queued one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, _ := getJob(t, ts, status.ID)
		if r.Header.Get("X-Job-State") == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := deleteJob(t, ts, status.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	final, view := pollUntilTerminal(t, ts, status.ID)
	if got := final.Header.Get("X-Job-State"); got != "failed" {
		t.Fatalf("cancelled job state %q", got)
	}
	if !strings.Contains(view.Error, "499") || !strings.Contains(view.Error, "client closed request") {
		t.Fatalf("cancelled job error %q lacks the 499-style reason", view.Error)
	}
	if m := metricsOf(t, ts); m.Jobs.Canceled != 1 || m.Jobs.Failed != 1 {
		t.Fatalf("job metrics after cancel: %+v", m.Jobs)
	}
}

// TestJobsCancelQueued cancels a job that never left the backlog.
func TestJobsCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, JobQueueDepth: 4})
	// Occupy the single worker.
	_, blocker := postJob(t, ts, "format=edges&tours=1000000&ants=8", bigEdgeList(300))
	resp, queued := postJob(t, ts, "seed=2", demoDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deleteJob(t, ts, queued.ID)
	final, view := pollUntilTerminal(t, ts, queued.ID)
	if got := final.Header.Get("X-Job-State"); got != "failed" {
		t.Fatalf("cancelled queued job state %q", got)
	}
	if !strings.Contains(view.Error, "499") {
		t.Fatalf("cancelled queued job error %q", view.Error)
	}
	deleteJob(t, ts, blocker.ID) // unblock the worker for Cleanup
}

// TestJobsQueueFull fills the backlog and expects 429 with Retry-After.
func TestJobsQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, JobQueueDepth: 1})
	// One job computing, one queued: the next submit must bounce.
	_, running := postJob(t, ts, "format=edges&tours=1000000&ants=8", bigEdgeList(300))
	if _, st := postJob(t, ts, "seed=2", demoDOT); st.ID == "" {
		t.Fatal("second submit rejected before the backlog was full")
	}
	resp, _ := postJob(t, ts, "seed=3", demoDOT)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	// The hint is pinned to the queue-stats formula (batch.RetryAfterSeconds):
	// workers=1, running=1, queued=1 → 2 drain rounds, not a constant "1".
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (derived from queue stats)", got, "2")
	}
	if m := metricsOf(t, ts); m.Jobs.Rejected != 1 {
		t.Fatalf("rejected counter %d, want 1", m.Jobs.Rejected)
	}
	deleteJob(t, ts, running.ID)
}

// TestJobsValidation: bad requests fail at submission, not at poll time,
// and malformed job paths 404.
func TestJobsValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postJob(t, ts, "algo=bogus", demoDOT); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus algo: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, "", "not a graph"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus body: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	// GET /jobs without an id is the listing, not a submission; other
	// verbs stay rejected.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs: %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /jobs: %d", resp.StatusCode)
	}
}

// TestJobsManyConcurrent floods the queue within its bounds and expects
// every job to finish done, exercising the pool under parallel load.
func TestJobsManyConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, JobQueueDepth: 32})
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		resp, status := postJob(t, ts, fmt.Sprintf("seed=%d&tours=2", i), demoDOT)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, status.ID)
	}
	for _, id := range ids {
		final, view := pollUntilTerminal(t, ts, id)
		if got := final.Header.Get("X-Job-State"); got != "done" {
			t.Fatalf("job %s: %s (%s)", id, got, view.raw)
		}
	}
	m := metricsOf(t, ts)
	if m.Jobs.Done != 12 || m.Jobs.Submitted != 12 || m.Jobs.Queued != 0 || m.Jobs.Running != 0 {
		t.Fatalf("job metrics: %+v", m.Jobs)
	}
}

// TestJobsIdenticalRequestsComputeOnce: identical jobs share one colony
// run — whichever interleaving happens (concurrent → single-flight
// coalesce, sequential → cache hit), exactly one body is ever computed.
func TestJobsIdenticalRequestsComputeOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	ids := make([]string, 4)
	for i := range ids {
		resp, status := postJob(t, ts, "seed=11&tours=4&ants=8", demoDOT)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids[i] = status.ID
	}
	var bodies [][]byte
	for _, id := range ids {
		final, view := pollUntilTerminal(t, ts, id)
		if got := final.Header.Get("X-Job-State"); got != "done" {
			t.Fatalf("job %s: %s (%s)", id, got, view.raw)
		}
		bodies = append(bodies, view.raw)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("identical jobs returned different bodies")
		}
	}
	if m := metricsOf(t, ts); m.CacheMisses != 1 {
		t.Fatalf("%d identical jobs computed %d bodies, want 1 (coalesced=%d hits=%d)",
			len(ids), m.CacheMisses, m.Coalesced, m.CacheHits)
	}
}

func metricsOf(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}
