package server

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Event block.
type sseFrame struct {
	id    uint64
	event string
	data  string
}

// openStream GETs an SSE endpoint with an optional Last-Event-ID and
// hands back the live response (caller closes).
func openStream(t *testing.T, ts *httptest.Server, path string, lastID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s answered %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	return resp
}

// readFrames parses SSE blocks from br until max frames arrive or the
// stream ends. Comment lines (heartbeats) are counted separately.
func readFrames(t *testing.T, br *bufio.Reader, max int) (frames []sseFrame, comments int) {
	t.Helper()
	var cur sseFrame
	started := false
	for len(frames) < max {
		line, err := br.ReadString('\n')
		if err != nil {
			return frames, comments
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if started {
				frames = append(frames, cur)
				cur, started = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			comments++
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			started = true
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
			started = true
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
			started = true
		}
	}
	return frames, comments
}

// TestSSEJobStreamExactlyOnceAcrossReconnect is the push contract end to
// end: a client watching /jobs/{id}/events that is killed mid-stream and
// reconnects with Last-Event-ID observes every state transition exactly
// once, in order — nothing lost in the gap, nothing replayed twice.
func TestSSEJobStreamExactlyOnceAcrossReconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1})
	_, status := postJob(t, ts, slowQuery+"&seed=1", slowGraph)

	// First connection: read exactly one frame (the queued event, possibly
	// already running), then kill the connection mid-lifecycle.
	resp := openStream(t, ts, "/jobs/"+status.ID+"/events", 0)
	firstFrames, _ := readFrames(t, bufio.NewReader(resp.Body), 1)
	resp.Body.Close()
	if len(firstFrames) != 1 {
		t.Fatalf("first connection read %d frames, want 1", len(firstFrames))
	}

	// Let the job finish while no one is watching, then reconnect from the
	// last seen id: the ring replays the missed transitions.
	pollUntilTerminal(t, ts, status.ID)
	resp = openStream(t, ts, "/jobs/"+status.ID+"/events", firstFrames[0].id)
	rest, _ := readFrames(t, bufio.NewReader(resp.Body), 10)
	resp.Body.Close()

	all := append(firstFrames, rest...)
	want := []string{"queued", "running", "done"}
	if len(all) != len(want) {
		t.Fatalf("observed %d transitions %+v, want %v", len(all), all, want)
	}
	var lastSeq uint64
	for i, f := range all {
		if f.event != want[i] {
			t.Fatalf("transition %d = %q, want %q (frames %+v)", i, f.event, want[i], all)
		}
		if f.id <= lastSeq {
			t.Fatalf("event id %d not increasing past %d", f.id, lastSeq)
		}
		lastSeq = f.id
		var ev struct {
			Seq   uint64 `json:"seq"`
			Job   string `json:"job"`
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data %q: %v", i, f.data, err)
		}
		if ev.Job != status.ID || ev.State != f.event || ev.Seq != f.id {
			t.Fatalf("frame %d data %+v disagrees with frame id=%d event=%s", i, ev, f.id, f.event)
		}
	}
}

// TestSSEFinishedJobReplaysAndEnds: connecting after the job already
// finished serves the whole lifecycle from the replay ring and ends the
// stream (no hanging on a job that will never transition again).
func TestSSEFinishedJobReplaysAndEnds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, status := postJob(t, ts, "seed=2&tours=2", demoDOT)
	pollUntilTerminal(t, ts, status.ID)

	resp := openStream(t, ts, "/jobs/"+status.ID+"/events", 0)
	defer resp.Body.Close()
	frames, _ := readFrames(t, bufio.NewReader(resp.Body), 10) // returns on EOF
	if len(frames) != 3 || frames[0].event != "queued" || frames[2].event != "done" {
		t.Fatalf("replayed frames = %+v, want queued/running/done", frames)
	}
}

// TestSSETopicFirehose: /events?topic= delivers only matching jobs'
// transitions; heartbeat comments flow on an idle stream.
func TestSSETopicFirehose(t *testing.T) {
	_, ts := newTestServer(t, Config{SSEHeartbeat: 30 * time.Millisecond})
	resp := openStream(t, ts, "/events?topic=red", 0)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	_, red := postJob(t, ts, "seed=3&tours=2&label=red", demoDOT)
	_, blue := postJob(t, ts, "seed=4&tours=2&label=blue", demoDOT)
	pollUntilTerminal(t, ts, red.ID)
	pollUntilTerminal(t, ts, blue.ID)

	frames, comments := readFrames(t, br, 3)
	if len(frames) != 3 {
		t.Fatalf("topic stream delivered %d frames, want 3: %+v", len(frames), frames)
	}
	for _, f := range frames {
		var ev struct {
			Job    string   `json:"job"`
			Labels []string `json:"labels"`
		}
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job != red.ID {
			t.Fatalf("topic=red stream leaked %s's event: %+v", ev.Job, f)
		}
		if len(ev.Labels) != 1 || ev.Labels[0] != "red" {
			t.Fatalf("event labels = %v, want [red]", ev.Labels)
		}
	}
	// The stream is idle now; the next line to arrive must be a heartbeat
	// comment (the ticker fires every 30ms here).
	for comments == 0 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before a heartbeat arrived: %v", err)
		}
		if strings.HasPrefix(line, ":") {
			comments++
		}
	}
}

// TestSSEUnknownJob404AndBadResume: an id that was never seen answers
// 404; a garbage Last-Event-ID answers 400.
func TestSSEUnknownJob404AndBadResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream answered %d, want 404", resp.StatusCode)
	}

	_, status := postJob(t, ts, "seed=5&tours=2", demoDOT)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+status.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID answered %d, want 400", resp.StatusCode)
	}
}

// TestSSEShutdownFrame: closing the server ends open streams with an
// explicit shutdown frame — the streaming analogue of the 503 the
// request paths answer during graceful shutdown.
func TestSSEShutdownFrame(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := openStream(t, ts, "/events", 0)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	done := make(chan []sseFrame, 1)
	go func() {
		frames, _ := readFrames(t, br, 1)
		done <- frames
	}()
	time.Sleep(50 * time.Millisecond) // let the stream enter its select
	s.Close()
	select {
	case frames := <-done:
		if len(frames) != 1 || frames[0].event != "shutdown" {
			t.Fatalf("stream ended with %+v, want a shutdown frame", frames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end on server Close")
	}
}

// TestSSEMetricsCount: stream open/close moves the sse gauges.
func TestSSEMetricsCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, status := postJob(t, ts, "seed=6&tours=2", demoDOT)
	pollUntilTerminal(t, ts, status.ID)
	resp := openStream(t, ts, "/jobs/"+status.ID+"/events", 0)
	readFrames(t, bufio.NewReader(resp.Body), 10)
	resp.Body.Close()
	m := metricsOf(t, ts)
	if m.SSEStreams < 1 {
		t.Fatalf("sse_streams = %d, want >= 1", m.SSEStreams)
	}
	if m.Events.Published < 3 {
		t.Fatalf("events.published = %d, want >= 3", m.Events.Published)
	}
}

// readUntilEOF reads a stream's frames until it ends, failing the test
// if it is still open after 2s (heartbeats keep an idle stream alive).
func readUntilEOF(t *testing.T, resp *http.Response) []sseFrame {
	t.Helper()
	done := make(chan []sseFrame, 1)
	go func() {
		frames, _ := readFrames(t, bufio.NewReader(resp.Body), 100)
		done <- frames
	}()
	select {
	case frames := <-done:
		return frames
	case <-time.After(2 * time.Second):
		resp.Body.Close()
		t.Fatalf("stream still open after 2s (got %+v)", <-done)
		return nil
	}
}

// TestSSEResumeOlderThanRingGetsGap: a resume id the ring no longer
// reaches gets a gap frame first, then the retained events.
func TestSSEResumeOlderThanRingGetsGap(t *testing.T) {
	_, ts := newTestServer(t, Config{EventRing: 4})
	_, first := postJob(t, ts, "seed=1&tours=2", demoDOT)
	pollUntilTerminal(t, ts, first.ID)
	_, second := postJob(t, ts, "seed=2&tours=2", demoDOT)
	pollUntilTerminal(t, ts, second.ID)

	// Seqs 1-6: the ring holds 3-6, so resuming after 1 lost seq 2.
	resp := openStream(t, ts, "/jobs/"+second.ID+"/events", 1)
	defer resp.Body.Close()
	frames := readUntilEOF(t, resp)
	want := []string{"gap", "queued", "running", "done"}
	if len(frames) != len(want) {
		t.Fatalf("frames %+v, want %v", frames, want)
	}
	for i, f := range frames {
		if f.event != want[i] {
			t.Fatalf("frame %d = %q, want %q (frames %+v)", i, f.event, want[i], frames)
		}
	}
	if frames[0].data != `{"oldest_retained":3,"after":1}` {
		t.Fatalf("gap data %s", frames[0].data)
	}
}

// TestSSEFinishedJobEndsAfterItsEventsLeftTheRing: a still-tracked job
// whose events all left the ring gets a gap frame and an ended stream,
// not heartbeats forever. A finished job's stream resumed at its
// terminal event ends with nothing to send: nothing was lost.
func TestSSEFinishedJobEndsAfterItsEventsLeftTheRing(t *testing.T) {
	_, ts := newTestServer(t, Config{EventRing: 4, SSEHeartbeat: 50 * time.Millisecond})
	_, first := postJob(t, ts, "seed=1&tours=2", demoDOT)
	pollUntilTerminal(t, ts, first.ID)
	var last jobStatusView
	for seed := 2; seed <= 4; seed++ {
		_, last = postJob(t, ts, "tours=2&seed="+strconv.Itoa(seed), demoDOT)
		pollUntilTerminal(t, ts, last.ID)
	}
	resp := openStream(t, ts, "/jobs/"+first.ID+"/events", 0)
	defer resp.Body.Close()
	if frames := readUntilEOF(t, resp); len(frames) != 1 || frames[0].event != "gap" {
		t.Fatalf("frames %+v, want one gap frame", frames)
	}
	// Seqs 1-12: the last job finished at 12.
	resp = openStream(t, ts, "/jobs/"+last.ID+"/events", 12)
	defer resp.Body.Close()
	if frames := readUntilEOF(t, resp); len(frames) != 0 {
		t.Fatalf("resume at the terminal event sent %+v, want nothing", frames)
	}
}

// TestSSELargestLastEventID: a resume id of 2^64-1 neither panics nor
// replays anything; the stream idles on heartbeats.
func TestSSELargestLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{SSEHeartbeat: 30 * time.Millisecond})
	_, status := postJob(t, ts, "seed=1&tours=2", demoDOT)
	pollUntilTerminal(t, ts, status.ID)
	resp := openStream(t, ts, "/events", math.MaxUint64)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before a heartbeat: %v", err)
		}
		if strings.HasPrefix(line, ":") {
			return
		}
		if line != "\n" {
			t.Fatalf("stream sent %q before its first heartbeat", line)
		}
	}
}
