package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"antlayer/internal/batch"
)

// The push side of the job API. GET /jobs/{id}/events and GET
// /events?topic= stream job state transitions as Server-Sent Events:
// one `id:`/`event:`/`data:` block per transition, where the id is the
// event layer's global monotonic sequence number. A stream reads the
// bounded event ring through a cursor that starts at the client's
// Last-Event-ID header (or ?after= — handy with curl), so a reconnect
// resumes where the client left off and every matching transition
// arrives once, in order — or, when some left the ring (-event-ring)
// before the stream read them, an `event: gap` frame says so. Heartbeat
// comments keep idle proxies from reaping the connection; a graceful
// shutdown ends every stream with an `event: shutdown` block (the
// streaming cousin of the 503 the request paths answer), and a vanished
// client just ends the stream (the 499 case — nothing to answer).

// sseEvent writes one Server-Sent Event block: the sequence number as
// the id (so the browser's EventSource reconnect machinery replays from
// it automatically), the state as the event name, the full event JSON as
// the data line.
func sseEvent(w http.ResponseWriter, ev batch.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.State, data)
	return err
}

// lastEventID resolves the resume point of a stream: the standard
// Last-Event-ID header (what EventSource sends on reconnect), overridden
// by an explicit ?after= query parameter (what a curl user types).
func lastEventID(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if v := r.URL.Query().Get("after"); v != "" {
		raw = v
	}
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad event id %q: %v", raw, err)
	}
	return n, nil
}

// handleJobEvents serves GET /jobs/{id}/events: that job's transitions,
// ending after the terminal (done/failed) event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, r.PathValue("id"), "")
}

// handleEvents serves GET /events?topic=: the firehose of every job's
// transitions, optionally filtered to one topic label. The stream stays
// open until the client leaves or the daemon shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.streamEvents(w, r, "", r.URL.Query().Get("topic"))
}

// streamEvents is the shared SSE loop: read the ring past the cursor,
// write a gap frame if events were lost and then the events, and wait for
// the doorbell, a heartbeat, the client leaving or shutdown. A per-job
// stream (jobID != "") ends after its job's terminal event. The job's
// Done closes only after that event is published, so a read that starts
// after Done closed and finds no terminal event ends the stream too,
// with a gap frame first when the event left the ring unread.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, jobID, topic string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	last, err := lastEventID(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var done <-chan struct{} // nil, never ready, unless a tracked job's stream
	job, tracked := s.jobs.Get(jobID)
	if tracked {
		done = job.Done()
	}
	sub := s.jobs.Events().Subscribe(jobID, topic, last)
	defer sub.Close()
	finished := false
	select {
	case <-done:
		finished = true
	default:
	}
	evs, oldest, gap := sub.Read()
	if jobID != "" && !tracked && len(evs) == 0 {
		s.httpError(w, http.StatusNotFound, "no such job %q (finished jobs are retained for a bounded time)", jobID)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // nginx: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return // the headers are the answer; a stream would hold the connection
	}
	s.metrics.sseStreams.Add(1)
	s.metrics.sseActive.Add(1)
	defer s.metrics.sseActive.Add(-1)

	heartbeat := time.NewTicker(s.cfg.SSEHeartbeat)
	defer heartbeat.Stop()
	for {
		// A loss cannot be made whole; say so instead of silently
		// skipping, so the client knows to re-fetch state via GET
		// /jobs/{id}. A finished job's read that holds none of its events
		// holds no terminal event either: it is at or below the cursor,
		// or older than the ring — a loss only if the cursor is too.
		if gap || finished && len(evs) == 0 && last < oldest-1 {
			fmt.Fprintf(w, "event: gap\ndata: {\"oldest_retained\":%d,\"after\":%d}\n\n", oldest, last)
		}
		for _, ev := range evs {
			if err := sseEvent(w, ev); err != nil {
				return
			}
			last = ev.Seq
			if jobID != "" && ev.State.Terminal() {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		if finished {
			return
		}
		select {
		case <-sub.Ready():
		case <-done:
			finished = true
		case <-heartbeat.C:
			// A comment line: ignored by SSE clients, keeps proxies and
			// load balancers convinced the connection is alive.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
		case <-r.Context().Done():
			// Client gone (or the server cancelled its base context): the
			// streaming analogue of 499 — nothing left to tell anyone.
			return
		case <-s.shutdownCh:
			fmt.Fprintf(w, "event: shutdown\ndata: {\"reason\":\"server shutting down\"}\n\n")
			flusher.Flush()
			return
		}
		evs, oldest, gap = sub.Read()
	}
}
