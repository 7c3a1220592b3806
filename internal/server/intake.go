package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"antlayer"
	"antlayer/internal/batch"
	"antlayer/internal/core"
	"antlayer/internal/obs"
)

// The single intake: /layer, /jobs and every /jobs/bulk line turn their
// query and graph into a call through prepare, so a request is parsed,
// keyed, warm-planned and given its deadline the same way — and refused
// with the same words — whichever path it arrived on.

// call is one prepared layering request: everything computeCached needs
// to serve it.
type call struct {
	req   Request
	g     *antlayer.Graph
	names []string
	// key is the request's cold result-cache key (X-Cache-Key); a
	// warm-started call is cached under warm.key instead.
	key string
	// gk is the canonical graph hash (X-Graph-Key), the name a computed
	// warm-start state is filed under.
	gk string
	// warm is non-nil when warmPlan warm-started the call (req then
	// carries the remapped state and the reduced tour budget); probed
	// reports whether the call was warm-eligible at all.
	warm    *warmRun
	probed  bool
	timeout time.Duration
}

// rejection is a request turned away before it computes: the HTTP status
// (400 or 413 from prepare, 429 or 503 from admission to the job or
// cluster run queue), the Retry-After hint of a 429, and the message a
// bulk line carries verbatim.
type rejection struct {
	status     int
	retryAfter int
	msg        string
}

func reject(status int, format string, args ...any) *rejection {
	return &rejection{status: status, msg: fmt.Sprintf(format, args...)}
}

// Error lets a rejection travel as the error of a check the graph
// reader runs, so parse can answer it unchanged.
func (r *rejection) Error() string { return r.msg }

// maxColonyBytes bounds one request's colonies: core.ColonyMemoryBytes
// times the colony count, which grows with n² from a small body.
const maxColonyBytes = 256 << 20

// colonyBound refuses 413 when the request's colonies over n vertices
// would hold more than maxColonyBytes; nil admits them.
func colonyBound(req Request, n int) *rejection {
	k := req.colonies()
	if k == 0 {
		return nil
	}
	if est := core.ColonyMemoryBytes(n, req.ACO); est > maxColonyBytes/int64(k) {
		return reject(http.StatusRequestEntityTooLarge,
			"colony memory estimate %.4g MiB (n=%d, ants=%d, tours=%d, colonies=%d) exceeds the %d MiB limit",
			float64(est)*float64(k)/(1<<20), n, req.ACO.Ants, req.ACO.Tours, k, maxColonyBytes>>20)
	}
	return nil
}

// prepare parses a request's query and graph, refuses distributed=true on
// a daemon that is not a coordinator, hashes the graph once for both
// keys, plans a warm start and resolves the deadline: the server default,
// overridden per request, capped by MaxTimeout.
func (s *Server) prepare(query url.Values, body io.Reader, tr *obs.Trace) (*call, *rejection) {
	span := tr.Begin("parse")
	c, rej := s.parse(query, body)
	span.End()
	if rej != nil {
		return nil, rej
	}
	c.gk = graphKey(c.g, c.names)
	c.key = requestKey(c.req, c.gk)
	span = tr.Begin("warm")
	s.warmPlan(c)
	span.End()
	c.timeout = s.cfg.DefaultTimeout
	if c.req.Timeout > 0 {
		c.timeout = c.req.Timeout
	}
	c.timeout = min(c.timeout, s.cfg.MaxTimeout)
	return c, nil
}

// parse is prepare's parse span: the query, the coordinator check, then
// the graph.
func (s *Server) parse(query url.Values, body io.Reader) (*call, *rejection) {
	req, err := ParseRequest(query)
	if err != nil {
		return nil, reject(http.StatusBadRequest, "bad request: %v", err)
	}
	if req.Distributed && s.cfg.Coordinator == nil {
		return nil, reject(http.StatusBadRequest, "distributed=true but this daemon is not a coordinator (start it with -coordinator)")
	}
	// An edge list is bounded at its header, before a vertex of it is
	// allocated; a DOT graph once it is parsed.
	g, names, err := parseGraph(req, body, func(n int) error {
		if rej := colonyBound(req, n); rej != nil {
			return rej
		}
		return nil
	})
	if err != nil {
		var rej *rejection
		if errors.As(err, &rej) {
			return nil, rej
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, reject(http.StatusRequestEntityTooLarge, "graph larger than %d bytes", tooLarge.Limit)
		}
		return nil, reject(http.StatusBadRequest, "bad %s input: %v", req.Format, err)
	}
	if rej := colonyBound(req, g.N()); rej != nil {
		return nil, rej
	}
	return &call{req: req, g: g, names: names}, nil
}

// submitJob admits a prepared call to the job queue — the one job
// closure behind POST /jobs and /jobs/bulk lines. The deadline starts
// when a worker picks the job up, not at submission: a job is not
// punished for waiting out a long queue, but the deadline does cover its
// wait for a compute slot, which /layer requests share. tr (nil for bulk
// lines) spans the job's whole life, queue wait included, and is
// finished when the job settles. A full queue is refused 429 with a
// Retry-After derived from the queue stats, a closed one 503.
func (s *Server) submitJob(c *call, tr *obs.Trace) (*batch.Job, *rejection) {
	enqueued := tr.Since()
	job, err := s.jobs.SubmitTraced(func(ctx context.Context) ([]byte, error) {
		defer s.tracer.Finish(tr)
		tr.Observe("queue_wait", "", 0, enqueued, tr.Since()-enqueued)
		ctx, cancel := context.WithTimeout(obs.NewContext(ctx, tr), c.timeout)
		defer cancel()
		body, _, _, err := s.computeCached(ctx, c)
		return body, err
	}, tr.ID(), c.req.Labels...)
	switch {
	case err == nil:
		return job, nil
	case errors.Is(err, batch.ErrQueueFull):
		rej := reject(http.StatusTooManyRequests, "job queue full (depth %d)", s.cfg.JobQueueDepth)
		rej.retryAfter = s.jobs.RetryAfter()
		return nil, rej
	default:
		return nil, reject(http.StatusServiceUnavailable, "job queue closed: %v", err)
	}
}

// startTrace opens a request's trace when head sampling
// (Config.TraceSample) selects it, honoring a well-formed inbound
// X-Request-ID, and always echoes a request ID — the trace's, else the
// well-formed inbound one, else a fresh one — so correlation never
// depends on the sampling verdict. The sampling RNG is deliberately
// outside the deterministic seed discipline: it selects which requests
// are observed, never what any of them compute. A nil trace is inert
// everywhere downstream.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) *obs.Trace {
	id := r.Header.Get("X-Request-ID")
	if sample := s.cfg.TraceSample; sample >= 1 || (sample > 0 && rand.Float64() < sample) {
		tr := s.tracer.New(id)
		w.Header().Set("X-Request-ID", tr.ID())
		return tr
	}
	if !obs.ValidID(id) {
		id = obs.NewID()
	}
	w.Header().Set("X-Request-ID", id)
	return nil
}

// writeRejection answers a rejection; a 429 carries its Retry-After.
func (s *Server) writeRejection(w http.ResponseWriter, rej *rejection) {
	msg := rej.msg
	if rej.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(rej.retryAfter))
		msg = fmt.Sprintf("%s; retry in %ds", msg, rej.retryAfter)
	}
	s.httpError(w, rej.status, "%s", msg)
}
