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

// maxRequestBytes bounds the memory one request's computation may hold:
// its colonies, its layering and answer, its drawing.
const maxRequestBytes = 256 << 20

// The bounds below are estimates measured on go1.24 amd64, rounded up by
// about a tenth: the bytes an lpl or ns request allocates per vertex of a
// header-only edge list (graph, names, layering and the answer's name
// list: ~315), and the n at which minwidth and cg, whose running time
// grows with n², take about a second on such a graph.
const (
	linearBytesPerVertex = 384
	maxQuadraticVertices = 7000
)

// computeBound refuses 413 a request whose algorithm over n vertices would
// hold more than maxRequestBytes or run for more than about a second with
// no deadline check: the colony memory estimate for aco and island, the
// vertex cap for minwidth and cg, a linear estimate for lpl and ns. nil
// admits it.
func computeBound(req Request, n int) *rejection {
	switch req.Algo {
	case "aco", "island":
		k := req.colonies()
		if est := core.ColonyMemoryBytes(n, req.ACO); est > maxRequestBytes/int64(k) {
			return reject(http.StatusRequestEntityTooLarge,
				"colony memory estimate %.4g MiB (n=%d, ants=%d, tours=%d, colonies=%d) exceeds the %d MiB limit",
				float64(est)*float64(k)/(1<<20), n, req.ACO.Ants, req.ACO.Tours, k, maxRequestBytes>>20)
		}
	case "minwidth", "cg":
		if n > maxQuadraticVertices {
			return reject(http.StatusRequestEntityTooLarge,
				"%s running time grows with n²: n=%d exceeds the %d-vertex limit", req.Algo, n, maxQuadraticVertices)
		}
	default:
		if est := float64(n) * linearBytesPerVertex; est > maxRequestBytes {
			return reject(http.StatusRequestEntityTooLarge,
				"%s memory estimate %.4g MiB (n=%d) exceeds the %d MiB limit", req.Algo, est/(1<<20), n, maxRequestBytes>>20)
		}
	}
	return nil
}

// The measured allocation of a drawing rendered through Compute, rounded
// up by about a tenth: per real vertex (its box, ~2.3 KB), per dummy
// vertex (~600 B), per edge (its polyline, ~1.6 KB) and per byte of label
// text (~20 B), plus ~130 B more for each & < > " in a label, which the
// SVG escapes and the JSON body escapes again.
const (
	drawBytesPerVertex    = 2560
	drawBytesPerDummy     = 640
	drawBytesPerEdge      = 1792
	drawBytesPerLabelByte = 24
	drawBytesPerEscape    = 128
)

// drawingBound refuses 413 a drawing of l whose estimate exceeds
// maxRequestBytes. It counts the proper graph in O(m) from the normalized
// layering the drawing uses — the vertices plus one dummy for each layer
// an edge skips — and the label text, before Draw allocates any of it.
// nil admits it.
func drawingBound(l *antlayer.Layering) *rejection {
	g, norm := l.Graph(), l.Clone()
	norm.Normalize()
	dummies := norm.DummyCount()
	labelBytes, escapes := 0, 0
	for v := range g.N() {
		label := g.Label(v)
		labelBytes += len(label)
		for i := 0; i < len(label); i++ {
			switch label[i] {
			case '&', '<', '>', '"':
				escapes++
			}
		}
	}
	est := float64(g.N())*drawBytesPerVertex + float64(dummies)*drawBytesPerDummy + float64(g.M())*drawBytesPerEdge +
		float64(labelBytes)*drawBytesPerLabelByte + float64(escapes)*drawBytesPerEscape
	if est > maxRequestBytes {
		return reject(http.StatusRequestEntityTooLarge,
			"drawing memory estimate %.4g MiB (n=%d, m=%d, dummies=%d, label bytes=%d) exceeds the %d MiB limit",
			est/(1<<20), g.N(), g.M(), dummies, labelBytes, maxRequestBytes>>20)
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
		if rej := computeBound(req, n); rej != nil {
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
	if rej := computeBound(req, g.N()); rej != nil {
		return nil, rej
	}
	return &call{req: req, g: g, names: names}, nil
}

// submitJob admits a prepared call to the job queue — the one job
// closure behind POST /jobs and /jobs/bulk lines. The deadline starts
// when a worker picks the job up, not at submission: a job is not
// punished for waiting out a long queue, but the deadline does cover its
// wait for a compute slot, which /layer requests share. tr (nil for bulk
// lines) spans the job's whole life, queue wait included: the queue
// finishes it as the job settles, however the job ends. A full queue is
// refused 429 with a Retry-After derived from the queue stats, a closed
// one 503.
func (s *Server) submitJob(c *call, tr *obs.Trace) (*batch.Job, *rejection) {
	var settle func()
	if tr != nil {
		settle = func() { s.tracer.Finish(tr) }
	}
	enqueued := tr.Since()
	job, err := s.jobs.SubmitTraced(func(ctx context.Context) ([]byte, error) {
		tr.Observe("queue_wait", "", 0, enqueued, tr.Since()-enqueued)
		ctx, cancel := context.WithTimeout(obs.NewContext(ctx, tr), c.timeout)
		defer cancel()
		body, _, _, err := s.computeCached(ctx, c)
		return body, err
	}, tr.ID(), settle, c.req.Labels...)
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
