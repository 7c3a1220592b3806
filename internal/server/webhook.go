package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antlayer/internal/batch"
	"antlayer/internal/retry"
)

// Webhook subscriptions: the push model for clients that cannot hold an
// SSE connection open. POST /subscriptions with a target URL (optionally
// filtered by job id or topic label) and the daemon POSTs every matching
// job state transition to it as JSON — the same Event document the SSE
// streams carry. A delivery that fails (connection error or non-2xx) is
// retried on the worker-reconnect backoff schedule (attempt k waits
// base<<k plus a deterministic jitter, capped), a bounded number of
// times; after that the event is counted failed and delivery moves on —
// a dead endpoint never wedges the stream. Events a slow endpoint missed
// entirely (its buffer overflowed while a delivery dragged) are counted
// dropped; the receiver can detect the gap from the sequence numbers and
// re-fetch state via GET /jobs.

// webhookRequest is the POST /subscriptions body.
type webhookRequest struct {
	// URL is the delivery target; each event is POSTed to it as JSON.
	URL string `json:"url"`
	// Topic and Job filter the subscription ("" = any), exactly like the
	// SSE streams' ?topic= and /jobs/{id}/events.
	Topic string `json:"topic,omitempty"`
	Job   string `json:"job,omitempty"`
}

// webhookInfo is one subscription as GET /subscriptions reports it.
type webhookInfo struct {
	ID        string    `json:"id"`
	URL       string    `json:"url"`
	Topic     string    `json:"topic,omitempty"`
	Job       string    `json:"job,omitempty"`
	Created   time.Time `json:"created"`
	Delivered int64     `json:"delivered"`
	Retries   int64     `json:"retries"`
	Failed    int64     `json:"failed"`
	Dropped   int64     `json:"dropped"`
}

// WebhookMetrics is the /metrics webhook section: the subscription gauge
// plus delivery counters summed over all subscriptions, current and
// deleted.
type WebhookMetrics struct {
	Subscriptions int   `json:"subscriptions"`
	Delivered     int64 `json:"delivered"`
	Retries       int64 `json:"retries"`
	Failed        int64 `json:"failed"`
	Dropped       int64 `json:"dropped"`
}

// webhookSub is one registered webhook and its delivery loop's state.
type webhookSub struct {
	id                                  string
	url                                 string
	topic                               string
	job                                 string
	created                             time.Time
	sub                                 *batch.Subscription
	delivered, retries, failed, dropped atomic.Int64
}

func (ws *webhookSub) info() webhookInfo {
	return webhookInfo{
		ID: ws.id, URL: ws.url, Topic: ws.topic, Job: ws.job, Created: ws.created,
		Delivered: ws.delivered.Load(), Retries: ws.retries.Load(),
		Failed: ws.failed.Load(), Dropped: ws.dropped.Load(),
	}
}

// webhookManager owns the subscriptions and their delivery goroutines.
type webhookManager struct {
	s      *Server
	client *http.Client
	done   chan struct{}
	wg     sync.WaitGroup
	// retryBase and retryMax shape the retry backoff (retry.Backoff:
	// attempt k waits base<<k, jittered deterministically, capped at max).
	// Tests shorten them before the server starts; nothing else writes
	// them.
	retryBase, retryMax time.Duration

	mu     sync.Mutex
	subs   map[string]*webhookSub
	nextID int
	closed bool
	// Totals survive subscription deletion so /metrics counters stay
	// monotonic.
	delivered, retries, failed, dropped atomic.Int64
}

func newWebhookManager(s *Server) *webhookManager {
	return &webhookManager{
		s:         s,
		client:    &http.Client{Timeout: 10 * time.Second},
		done:      make(chan struct{}),
		retryBase: 100 * time.Millisecond,
		retryMax:  5 * time.Second,
		subs:      make(map[string]*webhookSub),
	}
}

// add registers a webhook and starts its delivery loop.
func (m *webhookManager) add(req webhookRequest) (*webhookSub, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("server shutting down")
	}
	m.nextID++
	ws := &webhookSub{
		id:      fmt.Sprintf("wh%06d", m.nextID),
		url:     req.URL,
		topic:   req.Topic,
		job:     req.Job,
		created: time.Now(),
		// The buffer absorbs a burst while one delivery (with retries) is
		// in flight; beyond it the event layer drops and marks.
		sub: m.s.jobs.Events().Subscribe(req.Job, req.Topic, 256),
	}
	m.subs[ws.id] = ws
	m.wg.Add(1)
	go m.deliverLoop(ws)
	return ws, nil
}

// remove deletes a subscription; its delivery loop drains and exits.
func (m *webhookManager) remove(id string) bool {
	m.mu.Lock()
	ws, ok := m.subs[id]
	if ok {
		delete(m.subs, id)
	}
	m.mu.Unlock()
	if ok {
		ws.sub.Close()
	}
	return ok
}

// list returns the registered subscriptions in id order.
func (m *webhookManager) list() []webhookInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]webhookInfo, 0, len(m.subs))
	for _, ws := range m.subs {
		out = append(out, ws.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// get returns one subscription's info.
func (m *webhookManager) get(id string) (webhookInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws, ok := m.subs[id]
	if !ok {
		return webhookInfo{}, false
	}
	return ws.info(), true
}

// Metrics snapshots the webhook section for /metrics.
func (m *webhookManager) Metrics() WebhookMetrics {
	m.mu.Lock()
	n := len(m.subs)
	m.mu.Unlock()
	return WebhookMetrics{
		Subscriptions: n,
		Delivered:     m.delivered.Load(),
		Retries:       m.retries.Load(),
		Failed:        m.failed.Load(),
		Dropped:       m.dropped.Load(),
	}
}

// Close stops every delivery loop and waits for them. The batch queue's
// Close has already closed the subscription channels by the time the
// server calls this; the done channel aborts any backoff sleep in
// progress.
func (m *webhookManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	subs := make([]*webhookSub, 0, len(m.subs))
	for _, ws := range m.subs {
		subs = append(subs, ws)
	}
	m.mu.Unlock()
	close(m.done)
	for _, ws := range subs {
		ws.sub.Close()
	}
	m.wg.Wait()
}

// deliverLoop consumes one subscription's event channel and POSTs each
// event to the target, retrying on the backoff schedule.
func (m *webhookManager) deliverLoop(ws *webhookSub) {
	defer m.wg.Done()
	for ev := range ws.sub.C() {
		m.deliver(ws, ev)
		if d := ws.sub.Dropped(); d > 0 {
			// Events the buffer could not take while we were delivering:
			// gone for this endpoint (the sequence numbers tell the
			// receiver), counted so the operator notices.
			ws.dropped.Add(d)
			m.dropped.Add(d)
		}
	}
}

// deliver POSTs one event, retrying failures WebhookRetries times on the
// backoff schedule. Returns after success, exhaustion, or shutdown.
func (m *webhookManager) deliver(ws *webhookSub, ev batch.Event) {
	body, err := json.Marshal(ev)
	if err != nil {
		ws.failed.Add(1)
		m.failed.Add(1)
		return
	}
	attempts := m.s.cfg.WebhookRetries
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			ws.retries.Add(1)
			m.retries.Add(1)
			select {
			case <-time.After(retry.Backoff(m.retryBase, m.retryMax, attempt-1)):
			case <-m.done:
				ws.failed.Add(1)
				m.failed.Add(1)
				return
			}
		}
		if m.attemptPost(ws, body, ev) {
			ws.delivered.Add(1)
			m.delivered.Add(1)
			return
		}
	}
	ws.failed.Add(1)
	m.failed.Add(1)
	m.s.log().Warn("webhook delivery abandoned",
		"subscription", ws.id, "seq", ev.Seq, "attempts", attempts)
}

// attemptPost performs one delivery attempt; any 2xx answer counts.
func (m *webhookManager) attemptPost(ws *webhookSub, body []byte, ev batch.Event) bool {
	req, err := http.NewRequest(http.MethodPost, ws.url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Antlayer-Event", string(ev.State))
	req.Header.Set("X-Antlayer-Seq", strconv.FormatUint(ev.Seq, 10))
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// handleSubscriptions serves POST /subscriptions (register a webhook) and
// GET /subscriptions (list them).
func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, struct {
			Subscriptions []webhookInfo  `json:"subscriptions"`
			Stats         WebhookMetrics `json:"stats"`
		}{s.webhooks.list(), s.webhooks.Metrics()})
	case http.MethodPost:
		var req webhookRequest
		body := http.MaxBytesReader(w, r.Body, 1<<16)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.httpError(w, http.StatusBadRequest, "bad subscription body: %v", err)
			return
		}
		u, err := url.Parse(req.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			s.httpError(w, http.StatusBadRequest, "url must be absolute http(s), got %q", req.URL)
			return
		}
		ws, err := s.webhooks.add(req)
		if err != nil {
			s.httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		s.log().Info("webhook registered",
			"subscription", ws.id, "url", ws.url, "topic", ws.topic, "job", ws.job)
		writeJSON(w, http.StatusCreated, ws.info())
	default:
		w.Header().Set("Allow", "GET, POST")
		s.httpError(w, http.StatusMethodNotAllowed, "POST registers a webhook, GET lists them")
	}
}

// handleSubscription serves GET and DELETE on /subscriptions/{id}.
func (s *Server) handleSubscription(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/subscriptions/")
	if id == "" || strings.Contains(id, "/") {
		s.httpError(w, http.StatusNotFound, "want /subscriptions/{id}")
		return
	}
	switch r.Method {
	case http.MethodGet:
		info, ok := s.webhooks.get(id)
		if !ok {
			s.httpError(w, http.StatusNotFound, "no such subscription %q", id)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		if !s.webhooks.remove(id) {
			s.httpError(w, http.StatusNotFound, "no such subscription %q", id)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.httpError(w, http.StatusMethodNotAllowed, "GET inspects a subscription, DELETE removes it")
	}
}

// writeJSON answers code with v rendered as indented JSON — the one
// writer behind every JSON document the daemon serves except /layer
// bodies.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
