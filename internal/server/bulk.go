package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"antlayer/internal/batch"
)

// Bulk intake: POST /jobs/bulk accepts ndjson — one /layer-shaped
// request per line, {"query": "<the /layer query string>", "graph":
// "<the DOT or edge-list body>"} — admits each line through the job
// queue's existing bound (a full queue yields a 429-style error line
// with the same Retry-After hint POST /jobs would have sent, not a
// dropped request), and streams back one ndjson line per finished job in
// completion order. In the default raw mode a succeeded job's line is
// byte-identical to the body POST /layer would have served for that
// line's request — Compute emits compact JSON plus a trailing newline,
// which is exactly one ndjson line. With ?envelope=true every line is
// instead wrapped as a bulkResult carrying the input line number and job
// id, which is what lets `daglayer batch -stream` correlate results to
// input files; failures, parse errors and queue-full rejections are
// always reported as envelope lines (they have no /layer body to be
// identical to).

// bulkLine is one input line of POST /jobs/bulk.
type bulkLine struct {
	// Query is the /layer query string for this graph (algo=..., seed=...,
	// label=..., render=... — anything POST /layer accepts).
	Query string `json:"query"`
	// Graph is the graph text itself, in the format the query names.
	Graph string `json:"graph"`
}

// bulkResult is one output line — always for failures, for every line
// under ?envelope=true.
type bulkResult struct {
	// Line is the 1-based input line this result answers.
	Line int `json:"line"`
	// Job is the job id the line was admitted under ("" when admission
	// itself failed).
	Job   string `json:"job,omitempty"`
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// RetryAfter carries the backoff hint of a queue-full rejection, in
	// seconds — the streaming analogue of the 429 Retry-After header.
	RetryAfter int `json:"retry_after,omitempty"`
	// Body is the /layer response body of a done job (envelope mode).
	Body json.RawMessage `json:"body,omitempty"`
}

// handleBulk serves POST /jobs/bulk.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	envelope := r.URL.Query().Get("envelope") == "true"
	s.metrics.bulkRequests.Add(1)
	ctx := r.Context()

	// Results flow from the admission goroutine (parse/admission errors)
	// and one waiter goroutine per admitted job (completion order is
	// whatever order the jobs finish in). The admission goroutine owns the
	// channel close: it runs the WaitGroup dry only after the last Add.
	results := make(chan bulkResult, 16)
	go s.bulkAdmit(ctx, r.Body, results)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	for res := range results {
		var line []byte
		if !envelope && res.State == string(batch.StateDone) {
			// Raw mode: the /layer body verbatim (it is newline-terminated
			// compact JSON — exactly one ndjson line).
			line = res.Body
		} else {
			line, _ = json.Marshal(res)
			line = append(line, '\n')
		}
		if _, err := w.Write(line); err != nil {
			// Client gone; the waiters notice via ctx and unwind. Keep
			// draining so the admission goroutine can finish and close.
			continue
		}
		flusher.Flush()
	}
}

// bulkAdmit reads ndjson lines from body, submits each to the job queue,
// spawns a waiter per admitted job, and closes results once every line is
// read and every waiter has reported.
func (s *Server) bulkAdmit(ctx context.Context, body io.ReadCloser, results chan<- bulkResult) {
	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		close(results)
	}()
	emit := func(res bulkResult) {
		select {
		case results <- res:
		case <-ctx.Done():
		}
	}
	sc := bufio.NewScanner(body)
	// Each line is one /layer-shaped request; give it the same budget a
	// /layer body gets. A scanner accepts lines as long as its buffer, so
	// the buffer must not start above that budget.
	limit := int(s.cfg.MaxBodyBytes)
	sc.Buffer(make([]byte, min(64<<10, limit)), limit)
	lineNo := 0
	for sc.Scan() {
		if ctx.Err() != nil {
			return
		}
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		job, res := s.bulkSubmitLine(lineNo, raw)
		if job == nil {
			emit(res)
			if res.State == "closed" {
				return // queue shut down: no further line can be admitted
			}
			continue
		}
		s.metrics.bulkJobs.Add(1)
		wg.Add(1)
		go func(job *batch.Job, lineNo int) {
			defer wg.Done()
			if _, err := job.Wait(ctx); err != nil && ctx.Err() != nil {
				// Client disconnected mid-stream: the result has no reader,
				// so stop burning CPU on it.
				s.jobs.Cancel(job.ID())
				return
			}
			snap := job.Snapshot()
			res := bulkResult{Line: lineNo, Job: job.ID(), State: string(snap.State)}
			if snap.State == batch.StateDone {
				res.Body = snap.Result
			} else {
				res.Error = jobFailureReason(snap)
			}
			emit(res)
		}(job, lineNo)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		msg := fmt.Sprintf("reading input: %v", err)
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("line larger than %d bytes", limit)
		}
		emit(bulkResult{Line: lineNo + 1, State: "failed", Error: msg})
	}
}

// decodeBulkLine decodes one input line — JSON, then its query, then
// prepare — into the call POST /layer would make of the same query and
// graph, or the 400 or 413 rejection that refuses the line.
func (s *Server) decodeBulkLine(raw []byte) (*call, *rejection) {
	var bl bulkLine
	if err := json.Unmarshal(raw, &bl); err != nil {
		return nil, reject(http.StatusBadRequest, "bad line: %v", err)
	}
	query, err := url.ParseQuery(bl.Query)
	if err != nil {
		return nil, reject(http.StatusBadRequest, "bad query: %v", err)
	}
	return s.prepare(query, strings.NewReader(bl.Graph), nil)
}

// bulkSubmitLine decodes one input line and admits it to the job queue.
// It returns the admitted job, or (nil, an error result line) when the
// line could not be admitted.
func (s *Server) bulkSubmitLine(lineNo int, raw []byte) (*batch.Job, bulkResult) {
	c, rej := s.decodeBulkLine(raw)
	var job *batch.Job
	if rej == nil {
		job, rej = s.submitJob(c, nil)
	}
	if rej != nil {
		res := bulkResult{Line: lineNo, State: string(batch.StateFailed), Error: rej.msg, RetryAfter: rej.retryAfter}
		if rej.status == http.StatusServiceUnavailable {
			res.State = "closed"
		}
		return nil, res
	}
	return job, bulkResult{}
}
