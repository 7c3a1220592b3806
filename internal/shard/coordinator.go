package shard

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"antlayer/internal/dag"
	"antlayer/internal/island"
	"antlayer/internal/obs"
)

// ErrNoWorkers reports a distributed run attempted with an empty fleet.
var ErrNoWorkers = errors.New("shard: no workers registered")

// errWorkerFailure tags run errors attributable to a worker (connection
// died, protocol violation, worker-side failure); RunIsland expels the
// worker and retries on the survivors — the partition invariance makes
// the retry byte-identical, so a failure costs time, never answers.
var errWorkerFailure = errors.New("shard: worker failure")

// handshakeTimeout bounds how long an accepted connection may take to say
// hello, so a port-scanner cannot hold an accept slot open.
const handshakeTimeout = 10 * time.Second

// defaultHeartbeatTimeout is how long a worker may go silent before its
// reader expels it. Workers beat at a fifth of the timeout (2s here), so
// it tolerates four missed beats.
const defaultHeartbeatTimeout = 10 * time.Second

// CoordinatorConfig tunes a Coordinator. The zero value is usable.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a worker may go without sending any
	// frame (heartbeats included) before the coordinator expels it —
	// the defence against workers that die without closing their
	// connection (network partition, frozen host). The welcome frame
	// tells each worker to beat at a fifth of it. 0 means the default
	// (10s); negative disables liveness expulsion, and with it the
	// workers' heartbeats.
	HeartbeatTimeout time.Duration
	// QueueDepth bounds the pending-run queue: runs that cannot dispatch
	// immediately wait here, FIFO; past the bound RunIsland returns
	// ErrRunQueueFull. 0 means the default (16); negative disables
	// waiting entirely (dispatch immediately or reject).
	QueueDepth int
	// Secret, when non-empty, requires every registering worker to
	// present the same shared secret in its hello frame. A mismatch is
	// a clean rejection (error frame + close), never an expel.
	Secret string
	// Log receives registration and run-lifecycle lines. Nil discards.
	Log *slog.Logger
}

// readResult is one routed frame (or the read error that ended the
// connection) handed from a worker's reader goroutine to the inbox of the
// run that owns the worker, tagged with the worker's slot in the lease.
type readResult struct {
	slot int
	m    message
	err  error
}

// workerConn is one registered worker: its connection, the reader
// goroutine's routing state, and the latency bookkeeping /metrics
// reports per shard.
type workerConn struct {
	id   int
	name string
	conn net.Conn

	// Guarded by the owning Coordinator's mu.
	lease      uint64 // admission number of the run leasing the worker; 0 = idle
	islands    int    // size of the last run assignment
	epochs     int64
	epochTotal time.Duration
	epochMax   time.Duration
	lastSeen   time.Time       // last frame of any kind (last_seen_age_ms)
	beats      int64           // heartbeat frames received
	inbox      chan readResult // the owning run's inbox; nil while idle
	slot       int             // the worker's position in the owning run's lease
	runDone    chan struct{}   // closed when the owning run unwinds
}

// Coordinator owns the distributed archipelago's ring: workers register
// with it, and RunIsland partitions an island run across them, plays the
// epoch barrier and the ring exchange, and assembles the result. Create
// with NewCoordinator, serve with Serve, stop by cancelling Serve's
// context.
//
// Every registered worker's connection is owned by a dedicated reader
// goroutine: heartbeats are counted, run frames are routed into the
// inbox of the run that claimed the worker, and a read failure (the
// worker died) surfaces immediately — to the owning run mid-run, or as
// an instant expulsion while idle — instead of waiting for the next run
// to block on the dead connection. The reader reads every frame under a
// HeartbeatTimeout deadline, so a worker silent that long — a death that
// never closes the socket — fails the same way.
//
// Internally the Coordinator is two layers. The registry/lease layer
// owns the worker set: each run leases a disjoint subset sized
// min(islands, fleet), keeps it for the run's lifetime (retries
// included), and returns it on settle. The scheduler layer owns the
// bounded FIFO admission queue and dispatches the head as soon as
// enough idle workers exist, so independent runs proceed concurrently
// on disjoint leases — one run's finish overlaps the next's first
// epoch. Worker join/leave re-evaluates only pending runs; in-flight
// runs keep their lease (see scheduler.go).
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[int]*workerConn
	nextID  int
	seq     uint64 // wire sequence: fresh per run attempt, tags frames

	// Scheduler state, guarded by mu (see scheduler.go).
	queue       []*pendingRun // pending runs in admission order
	admit       uint64        // admission sequence: queue order tie-break
	running     int           // runs currently holding leases
	peakRunning int           // high-water mark of running
	runDurTotal time.Duration // wall time of completed runs (Retry-After)
	runsDone    int64
	dispatchMs  *obs.Window // recent time-to-dispatch samples, ms
	// launch starts a dispatched run on its lease; c.execute in
	// production, substituted by the scheduler benchmark.
	launch func(r *pendingRun, lease []*workerConn)

	runs       atomic.Int64
	runErrors  atomic.Int64
	rejected   atomic.Int64
	epochs     atomic.Int64
	migrations atomic.Int64
	beatExpels atomic.Int64
}

// NewCoordinator builds a Coordinator (zero-value config fine).
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	c := &Coordinator{cfg: cfg, workers: make(map[int]*workerConn), dispatchMs: obs.NewWindow(dispatchWindow)}
	c.launch = c.execute
	return c
}

// Serve accepts worker registrations on ln until ctx is cancelled, then
// closes the listener and every registered worker connection.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
		c.mu.Lock()
		for id, w := range c.workers {
			w.conn.Close()
			delete(c.workers, id)
		}
		c.fleetChangedLocked() // fail queued runs: the fleet is gone
		c.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("shard: accept: %w", err)
		}
		go c.handshake(conn)
	}
}

// handshake runs the hello/welcome exchange (verifying the shared
// secret when one is configured), registers the worker, and starts its
// reader goroutine. Registration can dispatch a waiting run.
func (c *Coordinator) handshake(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var m message
	if err := readFrame(conn, &m, maxHelloFrame); err != nil || m.Type != msgHello {
		conn.Close()
		return
	}
	if c.cfg.Secret != "" && !secretsEqual(m.Auth, c.cfg.Secret) {
		// A clean rejection, not an expel: the peer never joined the
		// fleet. The error frame tells an honestly misconfigured worker
		// why, without leaking anything about the expected secret.
		c.cfg.Log.Warn("registration rejected: bad cluster secret", "remote", conn.RemoteAddr().String())
		_ = writeFrame(conn, &message{Type: msgError, Error: "registration rejected: bad cluster secret"})
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	c.mu.Lock()
	c.nextID++
	w := &workerConn{id: c.nextID, name: m.Name, conn: conn, lastSeen: time.Now()}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.id)
	}
	c.workers[w.id] = w
	n := len(c.workers)
	c.mu.Unlock()
	welcome := &message{Type: msgWelcome, WorkerID: w.id}
	if c.cfg.HeartbeatTimeout > 0 {
		welcome.HeartbeatMs = max(c.cfg.HeartbeatTimeout/5, time.Millisecond).Milliseconds()
	}
	if err := writeFrame(conn, welcome); err != nil {
		c.expel(w)
		return
	}
	c.cfg.Log.Info("worker registered", "worker", w.name, "worker_id", w.id,
		"remote", conn.RemoteAddr().String(), "fleet", n)
	go c.readLoop(w)
	// The fleet grew: a pending run may now have enough idle workers.
	c.mu.Lock()
	c.dispatchLocked()
	c.mu.Unlock()
}

// secretsEqual compares cluster secrets in constant time; hashing first
// keeps the comparison length-independent, so neither the content nor
// the length of the configured secret leaks through timing.
func secretsEqual(got, want string) bool {
	g := sha256.Sum256([]byte(got))
	w := sha256.Sum256([]byte(want))
	return subtle.ConstantTimeCompare(g[:], w[:]) == 1
}

// readLoop owns every read on a worker's connection. Heartbeats are
// counted; run frames are routed into the inbox of the run that claimed
// the worker (frames between runs — stragglers of an aborted run — are
// discarded); a read error expels the worker and is handed to the owning
// run, if any. Each frame must arrive within HeartbeatTimeout, so a
// worker that falls silent fails its read like one that disconnected.
// The loop exits exactly when the worker is no longer usable, so a
// registered worker always has a live reader.
func (c *Coordinator) readLoop(w *workerConn) {
	for {
		if c.cfg.HeartbeatTimeout > 0 {
			_ = w.conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		}
		var m message
		err := readFrame(w.conn, &m, maxFrame)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.beatExpels.Add(1)
			c.cfg.Log.Warn("worker silent past heartbeat timeout; expelling",
				"worker", w.name, "worker_id", w.id, "timeout", c.cfg.HeartbeatTimeout)
		}
		c.mu.Lock()
		w.lastSeen = time.Now()
		if err == nil && m.Type == msgHeartbeat {
			w.beats++
			c.mu.Unlock()
			continue
		}
		inbox, slot, runDone := w.inbox, w.slot, w.runDone
		c.mu.Unlock()
		if err != nil {
			// Broken connection: expel first so no new run can claim the
			// worker, then hand the error to the run that was reading it.
			c.expel(w)
		}
		if inbox != nil {
			select {
			case inbox <- readResult{slot: slot, m: m, err: err}:
			case <-runDone: // the run unwound first; drop the frame
			}
		}
		if err != nil {
			return
		}
	}
}

// expel removes a worker from the fleet and closes its connection. Safe
// to call more than once for the same worker. The registry change
// re-evaluates pending runs: a smaller fleet can shrink the lease the
// queue head needs, and an emptied fleet fails the queue over to the
// in-process fallback.
func (c *Coordinator) expel(w *workerConn) {
	c.mu.Lock()
	_, present := c.workers[w.id]
	delete(c.workers, w.id)
	n := len(c.workers)
	if present {
		c.fleetChangedLocked()
	}
	c.mu.Unlock()
	w.conn.Close()
	if present {
		c.cfg.Log.Warn("worker expelled", "worker", w.name, "worker_id", w.id, "fleet", n)
	}
}

// Workers returns the current fleet size.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// partition splits islands 0..k-1 contiguously over w workers: the first
// k%w shards get one extra island, mirroring the corpus group split.
func partition(k, w int) [][]int {
	parts := make([][]int, w)
	base, rem := k/w, k%w
	next := 0
	for i := range parts {
		size := base
		if i < rem {
			size++
		}
		parts[i] = make([]int, size)
		for j := range parts[i] {
			parts[i][j] = next
			next++
		}
	}
	return parts
}

// runOnce drives one distributed run over the workers of its lease. Any
// worker-attributable failure expels the offender, aborts the others
// back to idle, and returns an error wrapping errWorkerFailure; a
// cancelled ctx aborts every worker back to idle and expels nobody. The
// lease is sized min(islands, fleet) at dispatch, so every leased
// worker hosts at least one island — no worker sits out a run it is
// claimed by.
func (c *Coordinator) runOnce(ctx context.Context, ws []*workerConn, g *dag.Graph, p island.Params) (*island.Result, error) {
	k := p.Islands
	parts := partition(k, len(ws))
	tr := obs.FromContext(ctx)

	// Claim the workers: their readers route this run's frames into one
	// inbox, sized for one frame per worker so a barrier's answers never
	// wait on each other. runDone releases any reader caught mid-route
	// when the run unwinds.
	inbox := make(chan readResult, len(ws))
	runDone := make(chan struct{})
	c.mu.Lock()
	c.seq++
	seq := c.seq
	for i, w := range ws {
		w.islands = len(parts[i])
		w.inbox, w.slot, w.runDone = inbox, i, runDone
	}
	c.mu.Unlock()
	defer func() {
		close(runDone)
		c.mu.Lock()
		for _, w := range ws {
			w.inbox, w.runDone = nil, nil
		}
		c.mu.Unlock()
	}()

	// abort returns the failure after expelling the offender (if any) and
	// telling every other worker to drop the run.
	abort := func(failed *workerConn, err error) error {
		for _, w := range ws {
			if w == failed {
				continue
			}
			_ = w.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			_ = writeFrame(w.conn, &message{Type: msgError, Seq: seq, Error: err.Error()})
			_ = w.conn.SetWriteDeadline(time.Time{})
		}
		if failed != nil {
			c.expel(failed)
			return fmt.Errorf("%w: worker %d (%s): %v", errWorkerFailure, failed.id, failed.name, err)
		}
		return err
	}

	// collect is the barrier: it reads the inbox until every worker has
	// answered with one frame that check accepts, and returns the frames
	// in lease order with how long the barrier waited for each worker.
	// The first failure aborts the run, blaming the frame's sender; ctx
	// ending aborts it blaming nobody.
	collect := func(check func(i int, m message) error) ([]message, []time.Duration, error) {
		frames := make([]message, len(ws))
		waited := make([]time.Duration, len(ws))
		got := make([]bool, len(ws))
		start := time.Now()
		for n := 0; n < len(ws); {
			var r readResult
			select {
			case <-ctx.Done():
				return nil, nil, abort(nil, fmt.Errorf("shard: run aborted: %w", ctx.Err()))
			case r = <-inbox:
			}
			err := r.err
			if err == nil {
				switch {
				case r.m.Seq != seq:
					continue // a straggler of an aborted earlier run
				case r.m.Type == msgError:
					err = fmt.Errorf("worker-side failure: %s", r.m.Error)
				case got[r.slot]:
					err = fmt.Errorf("protocol: second %s frame at one barrier", r.m.Type)
				default:
					err = check(r.slot, r.m)
				}
			}
			if err != nil {
				return nil, nil, abort(ws[r.slot], err)
			}
			frames[r.slot], waited[r.slot], got[r.slot] = r.m, time.Since(start), true
			n++
		}
		return frames, waited, nil
	}

	snap := g.Snapshot()
	// dispatched[i] is the trace offset at which worker i's run frame
	// went out — the rebase point for the spans its report brings back
	// (the worker's clock starts when the frame arrives, one network
	// hop later; cross-process offsets are approximate by that hop).
	dispatched := make([]time.Duration, len(ws))
	for i, w := range ws {
		dispatched[i] = tr.Since()
		run := &message{Type: msgRun, Seq: seq, Graph: &snap, Params: &p, Islands: parts[i], TraceID: tr.ID()}
		if err := writeFrame(w.conn, run); err != nil {
			return nil, abort(w, err)
		}
	}

	ring := island.NewRing(k)
	migrations := 0
	for epoch := 1; ; epoch++ {
		// Barrier: one epoch frame per worker, carrying the elites of its
		// assigned islands in order. The wait per worker is the per-shard
		// epoch latency /metrics reports.
		barrierStart := tr.Since()
		frames, waited, err := collect(func(i int, m message) error {
			if m.Type != msgEpoch || m.Epoch != epoch {
				return fmt.Errorf("protocol: want epoch %d, got %s/%d", epoch, m.Type, m.Epoch)
			}
			if len(m.Elites) != len(parts[i]) {
				return fmt.Errorf("protocol: %d elites for %d islands", len(m.Elites), len(parts[i]))
			}
			for j, e := range m.Elites {
				if e.Island != parts[i][j] {
					return fmt.Errorf("protocol: elite %d is island %d, want %d", j, e.Island, parts[i][j])
				}
			}
			return nil
		})
		tr.Observe("epoch", "", epoch, barrierStart, tr.Since()-barrierStart)
		if err != nil {
			return nil, err
		}
		c.epochs.Add(1)
		c.mu.Lock()
		for i, w := range ws {
			w.epochs++
			w.epochTotal += waited[i]
			w.epochMax = max(w.epochMax, waited[i])
		}
		c.mu.Unlock()

		// partition is contiguous in lease order, so the elites laid end
		// to end are the whole ring in island order; the in-process ring
		// turns it, and each worker gets back its own islands' slice.
		elites := make([]island.Elite, 0, k)
		for _, f := range frames {
			elites = append(elites, f.Elites...)
		}
		incoming, cont, err := ring.Exchange(ctx, epoch, elites)
		if err != nil {
			return nil, abort(nil, err)
		}
		if !cont {
			break
		}
		migrateStart := tr.Since()
		for i, w := range ws {
			migrate := &message{Type: msgMigrate, Seq: seq, Epoch: epoch}
			if incoming != nil {
				migrate.Elites = incoming[parts[i][0] : parts[i][0]+len(parts[i])]
			}
			if err := writeFrame(w.conn, migrate); err != nil {
				return nil, abort(w, err)
			}
		}
		tr.Observe("migrate", "", epoch, migrateStart, tr.Since()-migrateStart)
		if len(incoming) > 0 {
			migrations++
			c.migrations.Add(1)
		}
	}

	// Finish: collect every worker's reports; laid end to end they are in
	// ring order, as Assemble requires.
	for _, w := range ws {
		if err := writeFrame(w.conn, &message{Type: msgFinish, Seq: seq}); err != nil {
			return nil, abort(w, err)
		}
	}
	frames, _, err := collect(func(i int, m message) error {
		if m.Type != msgReport || len(m.Reports) != len(parts[i]) {
			return fmt.Errorf("protocol: want %d reports, got %s/%d", len(parts[i]), m.Type, len(m.Reports))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reports := make([]island.Report, 0, k)
	for i, f := range frames {
		reports = append(reports, f.Reports...)
		tr.Merge(f.Spans, dispatched[i])
	}
	assemble := tr.Begin("assemble")
	res, err := island.Assemble(g, p, reports, migrations)
	assemble.End()
	if err != nil {
		return nil, abort(nil, err)
	}
	return res, nil
}

// WorkerMetrics is one shard's observability record.
type WorkerMetrics struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// State is the lease state: "idle", or "leased" to a run, with Run
	// naming the leasing run's admission number.
	State string `json:"state"`
	Run   uint64 `json:"run,omitempty"`
	// Islands is the size of the worker's slice in the last run it
	// participated in.
	Islands int `json:"islands"`
	// Epochs counts the epoch barriers the worker has answered;
	// MeanEpochMs and MaxEpochMs summarise how long the coordinator
	// waited for it at those barriers.
	Epochs      int64   `json:"epochs"`
	MeanEpochMs float64 `json:"mean_epoch_ms"`
	MaxEpochMs  float64 `json:"max_epoch_ms"`
	// Heartbeats counts the liveness frames received from the worker;
	// LastSeenAgeMs is how long ago the coordinator last heard anything
	// from it (a worker silent past the timeout is expelled).
	Heartbeats    int64   `json:"heartbeats"`
	LastSeenAgeMs float64 `json:"last_seen_age_ms"`
}

// DispatchMetrics summarises the scheduler's time-to-dispatch: how long
// admitted runs waited in the queue before workers were leased to them,
// nearest-rank quantiles over the recent window.
type DispatchMetrics struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// ClusterMetrics is the coordinator's observability snapshot, served by
// the daemon's /metrics and /cluster endpoints.
type ClusterMetrics struct {
	Workers int `json:"workers"`
	// IdleWorkers counts registered workers not currently leased to a
	// run; Workers - IdleWorkers are held by the runs in flight.
	IdleWorkers int   `json:"idle_workers"`
	Runs        int64 `json:"runs"`
	RunErrors   int64 `json:"run_errors"`
	// Scheduler state: runs holding leases right now, the concurrency
	// high-water mark, queued runs awaiting dispatch against the queue
	// bound, and admissions rejected with ErrRunQueueFull.
	RunsInFlight       int             `json:"runs_in_flight"`
	PeakConcurrentRuns int             `json:"peak_concurrent_runs"`
	RunsQueued         int             `json:"runs_queued"`
	RunQueueBound      int             `json:"run_queue_bound"`
	RunsRejected       int64           `json:"runs_rejected"`
	DispatchMs         DispatchMetrics `json:"dispatch_ms"`
	Epochs             int64           `json:"epochs"`
	Migrations         int64           `json:"migrations"`
	// HeartbeatExpels counts workers expelled for going silent past
	// HeartbeatTimeoutMs (other read errors and run-time failures expel
	// too, but are not counted here).
	HeartbeatExpels    int64           `json:"heartbeat_expels"`
	HeartbeatTimeoutMs float64         `json:"heartbeat_timeout_ms"`
	PerWorker          []WorkerMetrics `json:"per_worker,omitempty"`
}

// Metrics returns a point-in-time snapshot of the coordinator's counters.
func (c *Coordinator) Metrics() ClusterMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := ClusterMetrics{
		Workers:            len(c.workers),
		Runs:               c.runs.Load(),
		RunErrors:          c.runErrors.Load(),
		RunsInFlight:       c.running,
		PeakConcurrentRuns: c.peakRunning,
		RunsQueued:         len(c.queue),
		RunQueueBound:      c.queueDepth(),
		RunsRejected:       c.rejected.Load(),
		Epochs:             c.epochs.Load(),
		Migrations:         c.migrations.Load(),
		HeartbeatExpels:    c.beatExpels.Load(),
	}
	m.DispatchMs.Count, m.DispatchMs.P50Ms, m.DispatchMs.P99Ms = c.dispatchMs.Summary()
	if c.cfg.HeartbeatTimeout > 0 {
		m.HeartbeatTimeoutMs = float64(c.cfg.HeartbeatTimeout.Nanoseconds()) / 1e6
	}
	now := time.Now()
	ids := make([]int, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := c.workers[id]
		wm := WorkerMetrics{
			ID: w.id, Name: w.name, State: "idle", Islands: w.islands, Epochs: w.epochs,
			Heartbeats:    w.beats,
			LastSeenAgeMs: float64(now.Sub(w.lastSeen).Nanoseconds()) / 1e6,
		}
		if w.lease != 0 {
			wm.State, wm.Run = "leased", w.lease
		} else {
			m.IdleWorkers++
		}
		if w.epochs > 0 {
			wm.MeanEpochMs = float64(w.epochTotal.Nanoseconds()) / float64(w.epochs) / 1e6
			wm.MaxEpochMs = float64(w.epochMax.Nanoseconds()) / 1e6
		}
		m.PerWorker = append(m.PerWorker, wm)
	}
	return m
}
