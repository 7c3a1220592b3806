package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"antlayer/internal/batch"
	"antlayer/internal/shard"
)

// The async job API. POST /jobs accepts exactly what POST /layer accepts
// (same query parameters, same DOT/edge-list body) but answers 202 with a
// job id immediately; the layering computes on the job queue's worker
// pool. GET /jobs/{id} polls the job through queued → running →
// done|failed; a done job answers with byte-for-byte the body /layer
// would have served (the two paths share Compute and the result cache).
// DELETE /jobs/{id} cancels: a queued job fails without ever running, a
// running one has its context cancelled and the colony aborts within one
// ant walk per worker. A cancelled job reports state "failed" with a
// 499-style reason, mirroring how /layer labels a vanished client.
// GET /jobs lists every tracked job (optionally ?state=queued|running|
// done|failed); tracking is bounded by count (JobRetention).

// jobStatus is the JSON envelope for every non-done job state (and for
// POST/DELETE acknowledgements). Done jobs are served raw — the /layer
// body — so clients reuse one parser for both paths.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// TraceID correlates the job with its request trace (GET /traces/{id});
	// empty for jobs admitted through paths that do not mint traces.
	TraceID string `json:"trace_id,omitempty"`
	// Error is set for failed jobs. A cancellation reads
	// "client closed request (499): ..." whether the job was still queued
	// or already running.
	Error string `json:"error,omitempty"`
	// Poll is the URL to poll, echoed on submission for convenience.
	Poll string `json:"poll,omitempty"`
}

// handleSubmit serves POST /jobs: prepare synchronously (bad requests
// fail now, not at poll time), then enqueue the computation.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// A job's trace spans its whole life: opened at submission, finished
	// when the job settles, so the queue wait is visible in the span
	// breakdown.
	tr := s.startTrace(w, r)
	c, rej := s.prepare(r.URL.Query(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), tr)
	var job *batch.Job
	if rej == nil {
		job, rej = s.submitJob(c, tr)
	}
	if rej != nil {
		s.tracer.Finish(tr)
		s.writeRejection(w, rej)
		return
	}
	s.log().Info("job submitted",
		"job", job.ID(), "trace", tr.ID(), "warm", c.warm != nil, "n", c.g.N(), "m", c.g.M(), "algo", c.req.Algo)
	writeJSON(w, http.StatusAccepted, jobStatus{
		ID:      job.ID(),
		State:   string(batch.StateQueued),
		TraceID: tr.ID(),
		Poll:    "/jobs/" + job.ID(),
	})
}

// jobListEntry is one row of the GET /jobs listing: the status envelope
// plus timestamps, so clients can spot stuck or ancient jobs without
// polling each id.
type jobListEntry struct {
	jobStatus
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// jobList is the GET /jobs response document.
type jobList struct {
	// Jobs holds the tracked jobs in submission order. Jobs evicted by
	// the retention bound no longer appear.
	Jobs []jobListEntry `json:"jobs"`
	// Stats is the same queue summary /metrics serves, so one GET shows
	// the listing and the gauges together.
	Stats batch.Stats `json:"stats"`
}

// handleJobList serves GET /jobs?state=queued|running|done|failed: every
// tracked job in submission order, optionally filtered by state.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	var filter batch.State
	if v := r.URL.Query().Get("state"); v != "" {
		filter = batch.State(v)
		switch filter {
		case batch.StateQueued, batch.StateRunning, batch.StateDone, batch.StateFailed:
		default:
			s.httpError(w, http.StatusBadRequest, "unknown state %q (want queued|running|done|failed)", v)
			return
		}
	}
	snaps := s.jobs.List(filter)
	list := jobList{Jobs: make([]jobListEntry, 0, len(snaps)), Stats: s.jobs.Stats()}
	for _, snap := range snaps {
		entry := jobListEntry{
			jobStatus: jobStatus{ID: snap.ID, State: string(snap.State), TraceID: snap.TraceID, Poll: "/jobs/" + snap.ID},
			Submitted: snap.Submitted,
		}
		if !snap.Started.IsZero() {
			started := snap.Started
			entry.Started = &started
		}
		if !snap.Finished.IsZero() {
			finished := snap.Finished
			entry.Finished = &finished
		}
		if snap.State == batch.StateFailed {
			entry.Error = jobFailureReason(snap)
		}
		list.Jobs = append(list.Jobs, entry)
	}
	writeJSON(w, http.StatusOK, list)
}

// handlePoll serves GET /jobs/{id}.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		s.writeJobSnapshot(w, job.Snapshot())
	}
}

// handleCancel serves DELETE /jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	s.jobs.Cancel(job.ID())
	// Cancelling a queued job settles it synchronously; a running one may
	// take a moment to unwind. Either way, answer with the state as it is
	// now.
	s.writeJobSnapshot(w, job.Snapshot())
}

// job looks up the route's {id}, answering 404 when it is not tracked.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*batch.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "no such job %q (finished jobs are retained for a bounded time)", id)
	}
	return job, ok
}

// writeJobSnapshot renders a job state: done jobs as the raw /layer body,
// everything else as a jobStatus envelope.
func (s *Server) writeJobSnapshot(w http.ResponseWriter, snap batch.Snapshot) {
	w.Header().Set("X-Job-State", string(snap.State))
	if snap.State == batch.StateDone {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(snap.Result)
		return
	}
	status := jobStatus{ID: snap.ID, State: string(snap.State), TraceID: snap.TraceID}
	if snap.State == batch.StateFailed {
		status.Error = jobFailureReason(snap)
	}
	writeJSON(w, http.StatusOK, status)
}

// jobFailureReason renders a failed job's error, labelling cancellations
// and deadline expiries the way /layer's status codes would: 499-style
// for a client-initiated cancel, 504-style for a deadline.
func jobFailureReason(snap batch.Snapshot) string {
	switch {
	case snap.Canceled:
		return fmt.Sprintf("client closed request (499): %v", snap.Err)
	case errors.Is(snap.Err, context.DeadlineExceeded):
		return fmt.Sprintf("deadline exceeded (504): %v", snap.Err)
	case errors.Is(snap.Err, context.Canceled):
		return fmt.Sprintf("server shutting down (503): %v", snap.Err)
	case errors.Is(snap.Err, shard.ErrRunQueueFull):
		return fmt.Sprintf("cluster run queue full (429): %v", snap.Err)
	default:
		return snap.Err.Error()
	}
}
