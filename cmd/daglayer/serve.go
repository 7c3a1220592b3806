package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"time"

	"antlayer/internal/obs"
	"antlayer/internal/server"
	"antlayer/internal/shard"
)

// runServe starts the layering HTTP daemon and blocks until ctx is
// cancelled (Ctrl-C / SIGTERM in main), then shuts down gracefully.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("daglayer serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8645", "listen address")
		cacheSize   = fs.Int("cache", 256, "result cache capacity in responses (negative disables)")
		cacheBytes  = fs.Int64("cache-bytes", 64<<20, "result cache body-byte budget; bodies over an eighth of it are never cached (negative = entry-counted only)")
		maxConc     = fs.Int("max-concurrent", 0, "compute slots shared by every in-process computation (/layer, /jobs, bulk lines); also the job worker count (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout  = fs.Duration("max-timeout", 2*time.Minute, "cap on the per-request timeout-ms override")
		maxBody     = fs.Int64("max-body", 8<<20, "request body size limit in bytes")
		grace       = fs.Duration("shutdown-grace", 10*time.Second, "how long shutdown waits for in-flight requests")
		jobQueue    = fs.Int("job-queue", 64, "async job backlog bound; POST /jobs beyond it answers 429")
		jobRetain   = fs.Int("job-retention", 256, "finished jobs kept pollable before eviction")
		eventRing   = fs.Int("event-ring", 0, "job-event ring size; bounds how far back an SSE reconnect can resume and how far a live stream may lag before it gets a gap frame (0 = default 1024)")
		sseHeart    = fs.Duration("sse-heartbeat", 0, "heartbeat-comment interval on idle SSE streams (0 = default 15s)")
		coordinator = fs.String("coordinator", "", "also run a shard coordinator on this address (e.g. :8650); workers join with 'daglayer worker'")
		hbTimeout   = fs.Duration("heartbeat-timeout", 0, "expel workers silent longer than this; workers heartbeat at a fifth of it (0 = library default 10s, negative disables)")
		runQueue    = fs.Int("run-queue", 0, "distributed-run admission queue bound; runs beyond it answer 429 (0 = default 16, negative = dispatch-or-reject)")
		secret      = fs.String("cluster-secret", "", "shared secret workers must present to register (empty = open cluster)")
		warmBytes   = fs.Int64("warm-cache-bytes", 0, "warm-start state cache budget in bytes (0 = default 64 MiB, negative disables warm starting)")
		traceSample = fs.Float64("trace-sample", 1, "fraction of requests that get a trace (head sampling; 1 = every request)")
		quiet       = fs.Bool("quiet", false, "suppress per-request logging")
		logLevel    = fs.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat   = fs.String("log-format", "text", "log line format: text|json")
		traceRing   = fs.Int("trace-ring", 0, "recent request traces retained for GET /traces (0 = default 256)")
		traceSlow   = fs.Int("trace-slowest", 0, "slowest traces additionally retained past the ring (0 = default 32, negative disables)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: daglayer serve [flags]

Runs the layering HTTP daemon:

  POST   /layer      layer a DOT (or edge-list) graph; see README "Serving"
                     (add distributed=true on a coordinator to shard
                     algo=island over the worker fleet; repeat or
                     lightly-edited colony requests warm-start from the
                     cached pheromone state of a prior answer — README
                     "Warm-start serving", opt out per request with
                     warm=false, pin a lineage with base=<graph key>)
  POST   /jobs       same request, asynchronously: 202 + job id
  POST   /jobs/bulk  ndjson of {query,graph} lines in, one result line
                     per job out, streamed in completion order
                     (?envelope=true wraps raw /layer bodies with
                     line/job/state; 'daglayer batch -stream' uses this)
  GET    /jobs       list tracked jobs (?state=queued|running|done|failed)
  GET    /jobs/{id}  poll a job (done jobs answer the /layer body)
  GET    /jobs/{id}/events
                     stream the job's state transitions as Server-Sent
                     Events; Last-Event-ID (or ?after=) replays missed
                     transitions from a bounded ring, exactly once
  DELETE /jobs/{id}  cancel a job
  GET    /events     SSE firehose of every job's transitions
                     (?topic= filters to one submission label)
  GET    /healthz    liveness + build info
  GET    /metrics    counters: requests, cache hit rate + bytes, tours,
                     p50/p99 latency, job queue depth and per-state
                     counts, event delivery, cluster
                     epochs/migrations
  GET    /cluster    the shard coordinator's fleet (coordinator only)
  GET    /traces     retained request traces, slowest first
                     (?limit=N&min_ms=D); every /layer and /jobs answer
                     echoes X-Request-ID, and GET /traces/{id} breaks the
                     request into spans — parse, cache, queue, cluster
                     admission, per-worker epochs

With -coordinator the daemon also owns a distributed archipelago: worker
processes ('daglayer worker -coordinator host:port') register on that
address and island runs with distributed=true shard across them,
byte-identical to in-process runs (README "Cluster"). Distinct runs
lease disjoint worker subsets and proceed concurrently; -run-queue
bounds the admission backlog (beyond it /layer answers 429 with a
stats-derived Retry-After) and -cluster-secret gates worker
registration.

-max-concurrent is the daemon's one bound on local compute: every
computation that runs in-process, from /layer, /jobs or a bulk line,
takes one of its slots, and the job worker pool has as many workers.
A /layer request waits for a slot until its deadline (never 429); a job
waits inside its own deadline. Distributed runs on a live fleet take no
slot: the coordinator's queue admits them.

flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		Addr:           *addr,
		CacheSize:      *cacheSize,
		CacheMaxBytes:  *cacheBytes,
		MaxConcurrent:  *maxConc,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		ShutdownGrace:  *grace,
		JobQueueDepth:  *jobQueue,
		JobRetention:   *jobRetain,
		EventRing:      *eventRing,
		SSEHeartbeat:   *sseHeart,
		TraceRing:      *traceRing,
		TraceSlowest:   *traceSlow,
		TraceSample:    *traceSample,
		WarmCacheBytes: *warmBytes,
		EnablePprof:    *pprofOn,
	}
	if *traceSample == 0 {
		// On the flag, 0 reads as "trace nothing"; in the Config, 0 is the
		// zero value and means the default (1). Translate.
		cfg.TraceSample = -1
	}
	if !*quiet {
		logger, err := obs.NewLogger(stdout, *logLevel, *logFormat)
		if err != nil {
			return err
		}
		cfg.Log = logger
	}
	if *coordinator != "" {
		// The coordinator listens on its own port with its own accept
		// loop; the daemon only uses it for distributed compute and
		// metrics. Both shut down with ctx.
		coord := shard.NewCoordinator(shard.CoordinatorConfig{
			Log:              cfg.Log,
			HeartbeatTimeout: *hbTimeout,
			QueueDepth:       *runQueue,
			Secret:           *secret,
		})
		ln, err := net.Listen("tcp", *coordinator)
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		if cfg.Log != nil {
			cfg.Log.Info("coordinator listening", "addr", ln.Addr().String())
		}
		coordErr := make(chan error, 1)
		go func() { coordErr <- coord.Serve(ctx, ln) }()
		cfg.Coordinator = coord
		serveErr := server.New(cfg).ListenAndServe(ctx)
		if err := <-coordErr; err != nil && serveErr == nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		return serveErr
	}
	return server.New(cfg).ListenAndServe(ctx)
}
