// Package server exposes the layering algorithms as a long-running HTTP
// service: POST a DOT or edge-list graph to /layer and get the layering,
// the paper's quality metrics and optionally an SVG/ASCII drawing back as
// JSON — or submit the same request asynchronously to /jobs and poll.
//
// The daemon is built for repeated heavy traffic:
//
//   - Results are cached in an LRU keyed by the canonical (graph, params)
//     hash. Colony runs are bitwise-deterministic (PR 1), so a hit returns
//     exactly the bytes a recomputation would produce — repeated graphs
//     are free. /layer and /jobs share the cache.
//   - One pool of compute slots bounds the colonies running in-process,
//     whichever path (/layer, /jobs, a bulk line) they came from; waiting
//     requests hold no worker resources and honour their deadline while
//     queued. Distributed runs take no slot: the cluster scheduler admits
//     them.
//   - POST /jobs enqueues the request on a bounded job queue (202 + job
//     id; 429 when the backlog is full) worked by a fixed pool, so
//     clients submit many graphs without holding a connection open per
//     request. GET /jobs/{id} polls — a done job answers with exactly
//     the body /layer would have served — and DELETE /jobs/{id} cancels
//     through the colony's context plumbing.
//   - Every computation runs under a deadline (server default,
//     per-request override, hard cap) threaded into the colony's tour
//     loop via context.Context; an expired deadline aborts the run within
//     one ant walk per worker and answers 504 (or fails the job).
//   - /healthz for liveness plus build info, /metrics for counters
//     (requests, cache hit rate, tours run, p50/p99 latency, job-queue
//     depth and per-state counts), graceful shutdown via Serve's context.
//
// Start it with `daglayer serve`.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"antlayer"
	"antlayer/internal/batch"
	"antlayer/internal/buildinfo"
	"antlayer/internal/obs"
	"antlayer/internal/shard"

	"log/slog"
)

// Config tunes the daemon. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe. Default ":8645".
	Addr string
	// CacheSize is the LRU capacity in responses. 0 means the default
	// (256); negative disables caching.
	CacheSize int
	// CacheMaxBytes is the LRU's body-byte budget: entries are evicted
	// until total cached bytes fit, and a single body larger than an
	// eighth of the budget is never admitted (so one giant SVG cannot
	// purge dozens of plain layering entries). 0 means the default
	// (64 MiB); negative disables the byte bound (entry-counted only).
	CacheMaxBytes int64
	// MaxConcurrent is the number of compute slots: it bounds the
	// computations running in-process at once, summed over /layer, /jobs
	// and bulk lines, and sizes the job worker pool. Further computations
	// wait (holding no CPU) until a slot frees or their deadline passes.
	// Distributed runs on a live fleet take no slot. 0 means GOMAXPROCS.
	MaxConcurrent int
	// DefaultTimeout bounds a /layer request that sends no timeout-ms.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout-ms override. Default 2m.
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body. Default 8 MiB.
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Serve waits for in-flight requests
	// after its context is cancelled. Default 10s.
	ShutdownGrace time.Duration
	// JobQueueDepth bounds how many submitted jobs may wait for a worker;
	// POST /jobs beyond it answers 429. 0 means 64.
	JobQueueDepth int
	// JobRetention bounds how many finished jobs stay pollable; the
	// oldest is evicted first. 0 means 256.
	JobRetention int
	// EventRing bounds how many job state transitions the event layer
	// retains. SSE streams read only from this ring, so it bounds both how
	// far back a reconnect (Last-Event-ID) can resume and how far a live
	// stream may lag before it gets a gap frame. 0 means 1024.
	EventRing int
	// SSEHeartbeat is the interval between comment heartbeats on idle
	// event streams, keeping proxies from reaping the connection.
	// Default 15s.
	SSEHeartbeat time.Duration
	// TraceRing bounds how many recent request traces GET /traces can
	// reconstruct; TraceSlowest is the slowest-N retention list that
	// survives ring churn. 0 means the defaults (256 / 32); negative
	// TraceSlowest disables the slowest list.
	TraceRing    int
	TraceSlowest int
	// TraceSample is the probability a /layer or /jobs request mints a
	// trace (head sampling): 1 traces everything, 0.01 one in a hundred.
	// Sampled-out requests still echo an X-Request-ID (honored or
	// minted), they just record no spans and never enter the trace ring —
	// the knob that keeps high-rps warm traffic from churning it.
	// 0 means the default (1.0); negative disables tracing entirely.
	TraceSample float64
	// WarmCacheBytes budgets the warm-start state cache — prior runs'
	// pheromone matrices keyed by canonical graph hash, the fast path
	// for repeat-with-edits traffic. 0 means the default (64 MiB);
	// negative disables warm starting altogether.
	WarmCacheBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof. Off by
	// default: the profiling endpoints expose internals and cost CPU
	// when scraped, so production daemons opt in deliberately
	// (`daglayer serve -pprof`).
	EnablePprof bool
	// Coordinator, when non-nil, makes this daemon the archipelago's
	// coordinator: requests with distributed=true run algo=island sharded
	// over the coordinator's registered workers (byte-identical to the
	// in-process run), /cluster reports the fleet, and /metrics grows a
	// cluster section. The caller owns the coordinator's listener
	// lifecycle (see cmd/daglayer serve -coordinator).
	Coordinator *shard.Coordinator
	// Log receives structured request and lifecycle lines. Nil discards.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8645"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 64
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.EventRing <= 0 {
		c.EventRing = 1024
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.TraceSample > 1 {
		c.TraceSample = 1
	}
	if c.WarmCacheBytes == 0 {
		c.WarmCacheBytes = 64 << 20
	}
	return c
}

// Server is the layering daemon. Create with New, mount via Handler, or
// run with Serve/ListenAndServe.
type Server struct {
	cfg   Config
	cache *lru[[]byte] // nil when disabled; see newResultCache
	// warm is the warm-start state cache (nil when disabled): prior
	// colony states keyed by canonical graph hash, probed by vertex-name
	// similarity. See warm.go.
	warm    *warmCache
	flights *flightGroup
	metrics *serverMetrics
	jobs    *batch.Queue
	tracer  *obs.Tracer
	// slots holds one token per in-process computation (MaxConcurrent).
	slots chan struct{}
	mux   *http.ServeMux
	// shuttingDown flips when Serve begins graceful shutdown, so aborted
	// in-flight requests are answered 503 rather than blamed on the client.
	shuttingDown atomic.Bool
	// shutdownCh is closed (once) when shutdown begins, so long-lived SSE
	// streams end promptly with a shutdown frame instead of riding out
	// their heartbeat interval against a dying listener.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once
}

// New builds a Server from cfg (zero value fine; see Config).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize, cfg.CacheMaxBytes),
		flights: newFlightGroup(),
		metrics: newServerMetrics(),
		tracer:  obs.NewTracer(cfg.TraceRing, cfg.TraceSlowest),
		jobs: batch.New(batch.Config{
			Workers:   cfg.MaxConcurrent,
			Depth:     cfg.JobQueueDepth,
			Retain:    cfg.JobRetention,
			EventRing: cfg.EventRing,
		}),
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		shutdownCh: make(chan struct{}),
	}
	if cfg.WarmCacheBytes > 0 {
		s.warm = newWarmCache(cfg.WarmCacheBytes)
	}
	// The route table, the one place routes and methods live: the mux
	// answers a wrong method 405 with its own Allow, an unknown path 404.
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /layer", s.handleLayer)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobList)
	s.mux.HandleFunc("POST /jobs/bulk", s.handleBulk)
	s.mux.HandleFunc("GET /jobs/{id}", s.handlePoll)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /traces", s.handleTraces)
	s.mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	if cfg.EnablePprof {
		// Mounted explicitly on the daemon's own mux — importing
		// net/http/pprof registers on DefaultServeMux, which this server
		// never serves, so nothing leaks when the flag is off. Method-less:
		// /debug/pprof/symbol takes POST as well as GET.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Close releases the server's background resources — the job queue's
// worker pool (cancelling whatever is queued or running) and every open
// SSE stream. Serve calls it during graceful shutdown; call it directly
// when using Handler without Serve.
func (s *Server) Close() {
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	s.jobs.Close()
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get
// ShutdownGrace to finish, and any request still computing after the grace
// period has its context cancelled so the colony aborts instead of running
// to its own deadline. It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts descend from base, so cancelling it aborts every
	// in-flight colony (the tour loop observes the context; see
	// core.Colony.RunContext).
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.shuttingDown.Store(true)
	// End the SSE streams first: Shutdown waits for in-flight requests,
	// and an event stream is in flight until told to stop.
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := hs.Shutdown(sctx)
	cancelBase() // abort whatever outlived the grace period
	s.Close()    // stop the job workers; queued and running jobs fail as cancelled
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}

// ListenAndServe listens on Config.Addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.log().Info("listening", "addr", ln.Addr().String())
	return s.Serve(ctx, ln)
}

// Metrics returns a point-in-time snapshot of the daemon's counters.
func (s *Server) Metrics() MetricsSnapshot {
	var cluster *shard.ClusterMetrics
	if s.cfg.Coordinator != nil {
		cm := s.cfg.Coordinator.Metrics()
		cluster = &cm
	}
	var warm lruStats
	if s.warm != nil {
		warm = s.warm.Stats()
	}
	return s.metrics.snapshot(s.cache.Stats(), warm, s.jobs.Stats(), s.jobs.Events().Stats(), cluster, obs.ReadRuntime())
}

// log returns the structured logger (never nil).
func (s *Server) log() *slog.Logger {
	if s.cfg.Log != nil {
		return s.cfg.Log
	}
	return obs.Discard()
}

// healthzResponse is the JSON /healthz serves: liveness plus the build
// description of the running binary, so deployed instances can be told
// apart from the outside.
type healthzResponse struct {
	Status string         `json:"status"`
	Build  buildinfo.Info `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok", Build: buildinfo.Get()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.Metrics())
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = writeProm(w, s.Metrics())
	default:
		s.httpError(w, http.StatusBadRequest, "unknown format %q (want json|prometheus)", format)
	}
}

// handleCluster reports the shard coordinator's fleet and per-shard
// counters, so operators can watch workers register and epochs flow
// without grepping logs.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Coordinator == nil {
		s.httpError(w, http.StatusNotFound, "this daemon is not a coordinator (start it with -coordinator)")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Coordinator.Metrics())
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

// httpError answers status with a plain-text message and counts it.
func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.errors.Add(1)
	if status == http.StatusGatewayTimeout {
		s.metrics.timeouts.Add(1)
	}
	http.Error(w, fmt.Sprintf(format, args...), status)
}

// computeCached serves a request body from the cache, an identical
// in-flight computation, or a fresh Compute — the one engine behind the
// synchronous /layer handler and the async job closure, which is what
// makes their bodies byte-identical by construction.
//
// Cache, then single-flight: if an identical request is already
// computing, wait for its result instead of running a duplicate colony.
// A successful leader stores to the cache before releasing its flight,
// so a new leader's re-check through the loop cannot miss a completed
// result. After winning flight leadership an in-process computation
// waits for a compute slot (takeSlot); a distributed run on a live fleet
// skips the wait, because the cluster scheduler is its admission.
//
// source is "hit", "coalesced" or "miss" on success; stage names what
// was happening when err struck, in the vocabulary deadlineError logs.
//
// A computation that exported a warm-start state files it under the
// call's graph key. A warm-started call (c.warm non-nil) drives the warm
// hit and tours-saved accounting — a warm "hit" is any request served
// through a warm lineage, whether the body was computed, coalesced or
// replayed.
func (s *Server) computeCached(ctx context.Context, c *call) (body []byte, source, stage string, err error) {
	key, warm := c.key, c.warm
	if warm != nil {
		key = warm.key
	}
	tr := obs.FromContext(ctx)
	for {
		lookup := tr.Begin("cache_lookup")
		body, ok := s.cache.Get(key)
		lookup.End()
		if ok {
			s.metrics.cacheHits.Add(1)
			if warm != nil {
				s.metrics.warmHits.Add(1)
			}
			return body, "hit", "", nil
		}
		leader, fl := s.flights.join(key)
		if !leader {
			waitStart := tr.Since()
			select {
			case <-fl.done:
				tr.Observe("coalesce_wait", "", 0, waitStart, tr.Since()-waitStart)
				if fl.err == nil {
					s.metrics.coalesced.Add(1)
					if warm != nil {
						s.metrics.warmHits.Add(1)
					}
					return fl.body, "coalesced", "", nil
				}
				// The leader failed — possibly on a deadline shorter
				// than ours. Loop: re-check the cache, then try leading.
				continue
			case <-ctx.Done():
				tr.Observe("coalesce_wait", "", 0, waitStart, tr.Since()-waitStart)
				return nil, "", "waiting on an identical in-flight request", ctx.Err()
			}
		}
		runIsland := s.islandRunner(c.req)
		release := func() {}
		if runIsland == nil {
			queueStart := tr.Since()
			release, err = s.takeSlot(ctx)
			tr.Observe("queue_wait", "", 0, queueStart, tr.Since()-queueStart)
			if err != nil {
				s.flights.finish(key, fl, nil, err)
				return nil, "", "queued for a compute slot", err
			}
		}
		s.metrics.inFlight.Add(1)
		computeStart := tr.Since()
		body, toursRun, state, err := compute(ctx, c.req, c.g, c.names, runIsland, true)
		tr.Observe("compute", "", 0, computeStart, tr.Since()-computeStart)
		s.metrics.toursRun.Add(int64(toursRun))
		s.metrics.inFlight.Add(-1)
		release()
		if err != nil {
			s.flights.finish(key, fl, nil, err)
			return nil, "", "computing", err
		}
		s.cache.Put(key, body)
		if state != nil && warm == nil {
			// File a cold run's final state under the graph it solved, so
			// the next request for this graph — or an edit of it — can
			// warm-start. Only cold runs publish: they are the stable
			// anchors of a lineage. If warm runs republished their own
			// states, every replay would probe its own fresher entry,
			// shift the generation-stamped result key, and recompute —
			// answers would drift instead of replaying byte-identically.
			// When an edit chain wanders far enough from its anchor that
			// the similarity probe misses, the cold run that follows
			// re-anchors it. It goes in after the body: see warmPlan.
			s.warm.put(c.gk, c.names, state)
		}
		if warm != nil {
			s.metrics.warmHits.Add(1)
			if saved := int64(warm.coldTours - toursRun); saved > 0 {
				s.metrics.warmToursSaved.Add(saved)
			}
		}
		// The miss is counted only now, when a body was computed and
		// stored: the hit rate then describes serviceable traffic,
		// undistorted by requests that failed or timed out before
		// producing anything.
		s.metrics.cacheMisses.Add(1)
		s.flights.finish(key, fl, body, nil)
		return body, "miss", "", nil
	}
}

// islandRunner resolves where an algo=island request burns its CPU: on
// the shard coordinator's worker fleet when the request asked to be
// distributed, in-process otherwise (nil). When the coordinator's
// admission finds an empty fleet (shard.ErrNoWorkers), the run falls
// back to the local archipelago rather than failing the request — the
// bytes are identical either way, so availability wins — and the
// fallback is counted so operators notice a fleet that never fills. A
// full admission queue (shard.ErrRunQueueFull) does NOT fall back: the
// cluster is saturated, so shedding the request with 429 + Retry-After
// beats piling the work onto the coordinator's own CPU. A fallback run
// computes locally, so it takes a compute slot first.
func (s *Server) islandRunner(req Request) IslandRunner {
	if !req.Distributed || s.cfg.Coordinator == nil {
		return nil
	}
	return func(ctx context.Context, g *antlayer.Graph, p antlayer.IslandParams) (*antlayer.IslandResult, error) {
		res, err := s.cfg.Coordinator.RunIsland(ctx, g, p)
		if errors.Is(err, shard.ErrNoWorkers) {
			s.metrics.distFallbacks.Add(1)
			s.log().Warn("distributed request with no registered workers; running in-process",
				"trace", obs.FromContext(ctx).ID())
			release, err := s.takeSlot(ctx)
			if err != nil {
				return nil, err
			}
			defer release()
			return antlayer.IslandColonyRunContext(ctx, g, p)
		}
		if err == nil {
			s.metrics.distRuns.Add(1)
		}
		return res, err
	}
}

// takeSlot waits for one of the MaxConcurrent compute slots, the single
// bound on in-process colonies: it caps computation, not connections — a
// waiting request costs one blocked goroutine and still honours its
// deadline. It returns the slot's release callback or ctx's error.
func (s *Server) takeSlot(ctx context.Context) (func(), error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleLayer is the daemon's synchronous endpoint: parse, then serve
// through the shared cache/single-flight/compute engine under the request
// deadline. A /layer request waits for a compute slot until its deadline
// and is never refused 429 for want of one.
func (s *Server) handleLayer(w http.ResponseWriter, r *http.Request) {
	s.metrics.layerRequests.Add(1)
	start := time.Now()
	defer func() { s.metrics.observeLatency(time.Since(start)) }()

	tr := s.startTrace(w, r)
	defer s.tracer.Finish(tr)

	c, rej := s.prepare(r.URL.Query(), http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), tr)
	if rej != nil {
		s.writeRejection(w, rej)
		return
	}
	w.Header().Set("X-Cache-Key", c.key)
	// The graph's canonical hash is the handle a client passes back as
	// base= to name this graph as the warm-start lineage of its next
	// edit.
	w.Header().Set("X-Graph-Key", c.gk)
	switch {
	case c.warm != nil:
		w.Header().Set("X-Warm", "hit")
		w.Header().Set("X-Warm-Base", c.warm.baseKey)
	case c.probed:
		w.Header().Set("X-Warm", "miss")
	}

	ctx, cancel := context.WithTimeout(obs.NewContext(r.Context(), tr), c.timeout)
	defer cancel()

	body, source, stage, err := s.computeCached(ctx, c)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.deadlineError(w, r, err, stage)
			return
		}
		if errors.Is(err, shard.ErrRunQueueFull) {
			// The cluster scheduler's admission queue is at bound. The hint
			// is derived from the scheduler's stats — pending runs over
			// dispatch slots, scaled by observed run duration — so clients
			// back off proportionally to the actual congestion.
			s.writeRejection(w, &rejection{status: http.StatusTooManyRequests,
				retryAfter: s.cfg.Coordinator.RetryAfterSeconds(), msg: "distributed run queue full"})
			return
		}
		var rej *rejection
		if errors.As(err, &rej) {
			s.writeRejection(w, rej) // a drawing too large to admit
			return
		}
		s.httpError(w, http.StatusBadRequest, "layering failed: %v", err)
		return
	}
	s.log().Info("layer served",
		"trace", tr.ID(), "source", source, "warm", c.warm != nil, "n", c.g.N(), "m", c.g.M(),
		"algo", c.req.Algo, "dur", time.Since(start).Round(time.Microsecond))
	s.writeBody(w, body, source)
}

// deadlineError maps a context error: 504 when the request's deadline
// passed, 503 when a graceful shutdown aborted the work, and otherwise —
// the client itself vanished mid-request — 499 in the nginx convention.
func (s *Server) deadlineError(w http.ResponseWriter, r *http.Request, err error, stage string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.httpError(w, http.StatusGatewayTimeout, "deadline exceeded while %s", stage)
	case s.shuttingDown.Load():
		s.httpError(w, http.StatusServiceUnavailable, "server shutting down while %s", stage)
	default:
		s.httpError(w, 499, "client closed request while %s", stage)
	}
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheStatus)
	_, _ = w.Write(body)
}
