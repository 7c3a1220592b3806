package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// The non-streaming edges of the push API: method discipline, bad resume
// cursors, and the absence of any other push path.

func TestEventsEndpointMethodAndResumeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/events", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /events: got %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("Allow = %q, want GET, HEAD", allow)
	}

	resp, err = http.Get(ts.URL + "/events?after=not-a-number")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?after=: got %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/jobs/whatever/events", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /jobs/{id}/events: got %d, want 405", resp.StatusCode)
	}
}

// TestSubscriptionRoutesGone: events leave the daemon only on SSE
// streams and bulk responses, so no method on /subscriptions or
// /subscriptions/{id} reaches a handler — not even a well-formed
// registration.
func TestSubscriptionRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/subscriptions", "/subscriptions/wh000001"} {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			var body io.Reader
			if method == http.MethodPost {
				body = strings.NewReader(`{"url":"http://127.0.0.1:9/hook","topic":"alpha"}`)
			}
			req, err := http.NewRequest(method, ts.URL+path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: got %d, want 404", method, path, resp.StatusCode)
			}
		}
	}
}
