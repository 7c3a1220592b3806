package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"antlayer/internal/batch"
)

// webhookReceiver is a test endpoint recording delivered events; failFirst
// makes the first n requests answer 500 to exercise the retry schedule.
type webhookReceiver struct {
	mu        sync.Mutex
	events    []batch.Event
	requests  int
	failFirst int
}

func (wr *webhookReceiver) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wr.mu.Lock()
		defer wr.mu.Unlock()
		wr.requests++
		if wr.requests <= wr.failFirst {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		var ev batch.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		wr.events = append(wr.events, ev)
		w.WriteHeader(http.StatusNoContent)
	})
}

func (wr *webhookReceiver) snapshot() []batch.Event {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return append([]batch.Event(nil), wr.events...)
}

// subscribeWebhook registers a webhook and returns its id.
func subscribeWebhook(t *testing.T, ts *httptest.Server, target, topic, job string) string {
	t.Helper()
	body, _ := json.Marshal(webhookRequest{URL: target, Topic: topic, Job: job})
	resp, err := http.Post(ts.URL+"/subscriptions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info webhookInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("subscribe answered %d with %+v", resp.StatusCode, info)
	}
	return info.ID
}

// fastWebhookRetry shortens the webhook retry backoff to base/max.
func fastWebhookRetry(base, max time.Duration) func(*Server) {
	return func(s *Server) { s.webhooks.retryBase, s.webhooks.retryMax = base, max }
}

// TestWebhookDelivery: a registered webhook receives every transition of
// a matching job as JSON POSTs, in order; the listing reports delivery
// stats; DELETE stops the flow.
func TestWebhookDelivery(t *testing.T) {
	wr := &webhookReceiver{}
	target := httptest.NewServer(wr.handler())
	defer target.Close()
	_, ts := newTestServer(t, Config{}, fastWebhookRetry(time.Millisecond, 5*time.Second))

	id := subscribeWebhook(t, ts, target.URL, "hooked", "")
	_, status := postJob(t, ts, "seed=11&tours=2&label=hooked", demoDOT)
	pollUntilTerminal(t, ts, status.ID)
	if _, other := postJob(t, ts, "seed=12&tours=2", demoDOT); other.ID != "" {
		pollUntilTerminal(t, ts, other.ID) // unlabeled: must not be delivered
	}

	var got []batch.Event
	deadline := time.Now().Add(10 * time.Second)
	for {
		got = wr.snapshot()
		if len(got) >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(got) != 3 {
		t.Fatalf("webhook received %d events, want 3: %+v", len(got), got)
	}
	states := []batch.State{batch.StateQueued, batch.StateRunning, batch.StateDone}
	for i, ev := range got {
		if ev.JobID != status.ID || ev.State != states[i] {
			t.Fatalf("delivery %d = %+v, want %s for %s", i, ev, states[i], status.ID)
		}
	}

	resp, err := http.Get(ts.URL + "/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Subscriptions []webhookInfo  `json:"subscriptions"`
		Stats         WebhookMetrics `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Subscriptions) != 1 || listing.Subscriptions[0].Delivered != 3 {
		t.Fatalf("listing = %+v, want one subscription with 3 deliveries", listing)
	}
	if m := metricsOf(t, ts); m.Webhooks.Subscriptions != 1 || m.Webhooks.Delivered != 3 {
		t.Fatalf("webhook metrics = %+v", m.Webhooks)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscriptions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE answered %d, want 204", dresp.StatusCode)
	}
	if m := metricsOf(t, ts); m.Webhooks.Subscriptions != 0 {
		t.Fatalf("subscription survived DELETE: %+v", m.Webhooks)
	}
}

// TestWebhookRetrySchedule: failed deliveries are retried on the backoff
// schedule until the endpoint recovers; the retries are counted.
func TestWebhookRetrySchedule(t *testing.T) {
	wr := &webhookReceiver{failFirst: 2}
	target := httptest.NewServer(wr.handler())
	defer target.Close()
	_, ts := newTestServer(t, Config{WebhookRetries: 4}, fastWebhookRetry(time.Millisecond, 5*time.Millisecond))
	subscribeWebhook(t, ts, target.URL, "", "")
	_, status := postJob(t, ts, "seed=13&tours=2", demoDOT)
	pollUntilTerminal(t, ts, status.ID)

	deadline := time.Now().Add(10 * time.Second)
	for len(wr.snapshot()) < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	got := wr.snapshot()
	if len(got) != 3 || got[0].State != batch.StateQueued || got[2].State != batch.StateDone {
		t.Fatalf("webhook received %+v, want the full lifecycle despite failures", got)
	}
	if m := metricsOf(t, ts); m.Webhooks.Retries < 2 || m.Webhooks.Failed != 0 {
		t.Fatalf("webhook metrics after recovery = %+v, want >=2 retries, 0 failed", m.Webhooks)
	}
}

// TestWebhookGivesUpAndCounts: a permanently dead endpoint exhausts the
// retry budget; the event is counted failed and delivery moves on without
// wedging anything.
func TestWebhookGivesUpAndCounts(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusBadGateway)
	}))
	defer dead.Close()
	_, ts := newTestServer(t, Config{WebhookRetries: 2}, fastWebhookRetry(time.Millisecond, 2*time.Millisecond))
	subscribeWebhook(t, ts, dead.URL, "", "")
	_, status := postJob(t, ts, "seed=14&tours=2", demoDOT)
	pollUntilTerminal(t, ts, status.ID)

	deadline := time.Now().Add(10 * time.Second)
	for metricsOf(t, ts).Webhooks.Failed < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m := metricsOf(t, ts); m.Webhooks.Failed < 3 || m.Webhooks.Delivered != 0 {
		t.Fatalf("webhook metrics = %+v, want 3 failed deliveries and none delivered", m.Webhooks)
	}
}

// TestWebhookValidation: bad bodies and bad URLs are refused at
// registration, and unknown ids answer 404.
func TestWebhookValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"not json", `{"url":"ftp://x/hook"}`, `{"url":""}`} {
		resp, err := http.Post(ts.URL+"/subscriptions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("subscription %q answered %d, want 400", body, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/subscriptions/wh999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown subscription DELETE answered %d, want 404", resp.StatusCode)
	}
}
