package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"antlayer/internal/shard"
)

// TestRoutes walks the route table: every route serves its own method,
// and another method answers 405 with an Allow naming the methods its
// path is served under — a GET route serves HEAD too.
func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Coordinator: shard.NewCoordinator(shard.CoordinatorConfig{})})
	resp, job := postJob(t, ts, "seed=5&tours=2", demoDOT)
	traceID := resp.Header.Get("X-Request-ID")
	pollUntilTerminal(t, ts, job.ID)

	const get = "GET, HEAD"
	for _, r := range []struct {
		method, path, body string
		status             int
		allow              string
	}{
		{"POST", "/layer?algo=lpl", demoDOT, http.StatusOK, "POST"},
		{"POST", "/jobs?algo=lpl", demoDOT, http.StatusAccepted, "GET, HEAD, POST"},
		{"GET", "/jobs", "", http.StatusOK, "GET, HEAD, POST"},
		// GET and DELETE /jobs/{id} match /jobs/bulk too, with id "bulk".
		{"POST", "/jobs/bulk", "", http.StatusOK, "DELETE, GET, HEAD, POST"},
		{"GET", "/jobs/" + job.ID, "", http.StatusOK, "DELETE, GET, HEAD"},
		{"DELETE", "/jobs/" + job.ID, "", http.StatusOK, "DELETE, GET, HEAD"},
		{"GET", "/jobs/" + job.ID + "/events", "", http.StatusOK, get},
		{"GET", "/events", "", http.StatusOK, get},
		{"GET", "/traces", "", http.StatusOK, get},
		{"GET", "/traces/" + traceID, "", http.StatusOK, get},
		{"GET", "/healthz", "", http.StatusOK, get},
		{"GET", "/metrics", "", http.StatusOK, get},
		{"GET", "/cluster", "", http.StatusOK, get},
	} {
		for _, method := range []string{r.method, http.MethodPut} {
			req, err := http.NewRequest(method, ts.URL+r.path, strings.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close() // ends the firehose, which runs until its client leaves
			want, allow := r.status, ""
			if method == http.MethodPut {
				want, allow = http.StatusMethodNotAllowed, r.allow
			}
			if resp.StatusCode != want || resp.Header.Get("Allow") != allow {
				t.Errorf("%s %s: %d with Allow %q, want %d with Allow %q",
					method, r.path, resp.StatusCode, resp.Header.Get("Allow"), want, allow)
			}
		}
	}
}

// TestHeadEventStreams: HEAD on an event stream answers the stream's
// headers and returns, so the next request on the same keep-alive
// connection is answered — the firehose, and a job that is still
// running, would otherwise hold the connection for as long as they last.
func TestHeadEventStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A slow job's budget, raised so it runs until the deferred cancel.
	_, job := postJob(t, ts, "format=edges&tours=1000000&ants=8&seed=5", slowGraph)
	defer deleteJob(t, ts, job.ID)
	for _, path := range []string{"/events", "/jobs/" + job.ID + "/events"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		for _, req := range []string{"HEAD " + path, "GET /healthz"} {
			fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: test\r\n\r\n", req)
			method, _, _ := strings.Cut(req, " ")
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("HEAD %s, then %s on one connection: %v", path, req, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("HEAD %s, then %s on one connection: %d", path, req, resp.StatusCode)
			}
		}
	}
}
