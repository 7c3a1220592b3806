package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"antlayer/internal/dag"
	"antlayer/internal/island"
	"antlayer/internal/obs"
	"antlayer/internal/retry"
)

// ErrRunQueueFull reports a distributed run rejected at admission because
// the pending-run queue is at its bound. The HTTP layer maps it to 429
// with a stats-derived Retry-After (see Coordinator.RetryAfterSeconds).
var ErrRunQueueFull = errors.New("shard: run queue full")

// defaultQueueDepth bounds the pending-run queue when CoordinatorConfig
// leaves QueueDepth zero.
const defaultQueueDepth = 16

// dispatchWindow is how many recent time-to-dispatch samples the
// dispatch_ms quantiles in Metrics summarise.
const dispatchWindow = 256

// Run lifecycle states, guarded by the Coordinator's mu. A run moves
// queued → dispatched → settled, with one loop back (dispatched → queued
// when its lease is exhausted and it re-enters the queue).
const (
	runQueued = iota
	runDispatched
	runSettled
)

// runOutcome is the settled result of a pendingRun, delivered exactly
// once on its done channel.
type runOutcome struct {
	res *island.Result
	err error
}

// pendingRun is one admitted distributed run flowing through the
// scheduler: admission order, the request itself, and the channel the
// outcome is delivered on.
type pendingRun struct {
	// admit is the admission sequence number — the queue's FIFO order and
	// its deterministic tie-break. A run keeps its admit number when it is
	// requeued after lease exhaustion, so it re-enters ahead of every run
	// admitted after it.
	admit uint64
	ctx   context.Context
	g     *dag.Graph
	p     island.Params

	// Guarded by the Coordinator's mu.
	state        int
	enqueuedAt   time.Time // last (re-)admission; dispatch latency measures from here
	dispatchedAt time.Time

	done chan runOutcome // buffered 1; receives exactly one outcome
}

// RunIsland executes the island run distributed over leased workers and
// returns the assembled result — byte-identical to island.Run(ctx, g, p)
// by construction, whatever the fleet shape and whatever else is running
// concurrently (each run's engines live on its own disjoint worker
// subset). The run is admitted to a bounded FIFO queue and dispatched as
// soon as min(p.Islands, fleet) workers are idle; ErrRunQueueFull
// reports the queue at bound, ErrNoWorkers an empty fleet. A worker
// failure mid-run expels the worker and retries on the lease's
// survivors; when the lease is exhausted the run re-enters the queue at
// its original position.
func (c *Coordinator) RunIsland(ctx context.Context, g *dag.Graph, p island.Params) (*island.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, err := c.submit(ctx, g, p)
	if err != nil {
		return nil, err
	}
	select {
	case out := <-r.done:
		return out.res, out.err
	case <-ctx.Done():
		if c.cancelQueued(r) {
			return nil, fmt.Errorf("shard: run cancelled while queued: %w", ctx.Err())
		}
		// Already dispatched: the run's barrier sees ctx end and aborts
		// it promptly.
		out := <-r.done
		return out.res, out.err
	}
}

// submit admits a run to the scheduler. It returns ErrNoWorkers on an
// empty fleet (the caller falls back in-process) and ErrRunQueueFull when
// the run cannot dispatch immediately and the queue is at bound.
func (c *Coordinator) submit(ctx context.Context, g *dag.Graph, p island.Params) (*pendingRun, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return nil, ErrNoWorkers
	}
	c.admit++
	r := &pendingRun{
		admit:      c.admit,
		ctx:        ctx,
		g:          g,
		p:          p,
		state:      runQueued,
		enqueuedAt: time.Now(),
		done:       make(chan runOutcome, 1),
	}
	c.queue = append(c.queue, r) // newest admission: already in admit order
	c.dispatchLocked()
	if r.state == runQueued && len(c.queue) > c.queueDepth() {
		// Could not dispatch and the queue was already at bound; r is
		// necessarily the tail, so rejecting it keeps FIFO intact.
		c.queue = c.queue[:len(c.queue)-1]
		r.state = runSettled
		c.rejected.Add(1)
		return nil, ErrRunQueueFull
	}
	return r, nil
}

func (c *Coordinator) queueDepth() int {
	switch {
	case c.cfg.QueueDepth > 0:
		return c.cfg.QueueDepth
	case c.cfg.QueueDepth < 0:
		return 0 // no waiting: dispatch immediately or reject
	default:
		return defaultQueueDepth
	}
}

// cancelQueued removes a still-queued run from the queue. It reports
// false when the run has already been dispatched (or settled), in which
// case the caller must wait for the outcome instead.
func (c *Coordinator) cancelQueued(r *pendingRun) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.state != runQueued {
		return false
	}
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	r.state = runSettled
	return true
}

// idleLocked returns the idle (unleased) workers sorted by id. The sort
// keeps leases stable and partitions reproducible; it has no bearing on
// results (any partition yields the same bytes).
func (c *Coordinator) idleLocked() []*workerConn {
	ws := make([]*workerConn, 0, len(c.workers))
	for _, w := range c.workers {
		if w.lease == 0 {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
	return ws
}

// dispatchLocked drains the head of the queue while runs can start:
// strict FIFO, so a small run never jumps an older large one (leases
// always return, so the head never starves). Each dispatched run leases
// min(K, fleet) idle workers — the lease is sized against the *current*
// fleet, which is how worker join/leave rebalances pending runs while
// in-flight runs keep the lease they started with. Callers hold c.mu.
func (c *Coordinator) dispatchLocked() {
	for len(c.queue) > 0 {
		r := c.queue[0]
		if r.ctx.Err() != nil {
			// Dead before dispatch: settle without spending workers on it.
			c.queue = c.queue[1:]
			c.settleRunLocked(r, runOutcome{err: fmt.Errorf("shard: run cancelled while queued: %w", r.ctx.Err())})
			continue
		}
		need := r.p.Islands
		if n := len(c.workers); need > n {
			need = n
		}
		if need == 0 {
			return // empty fleet; expel's drain settles the queue
		}
		idle := c.idleLocked()
		if len(idle) < need {
			return
		}
		lease := idle[:need:need]
		for _, w := range lease {
			w.lease = r.admit
		}
		c.queue = c.queue[1:]
		r.state = runDispatched
		r.dispatchedAt = time.Now()
		if tr := obs.FromContext(r.ctx); tr != nil {
			// Admission span: how long the run waited in the queue for its
			// lease — the queue-position wait and the lease wait are one
			// event here (dispatch fires the moment enough workers idle).
			tr.Observe("admission", "", 0, r.enqueuedAt.Sub(tr.Start()), r.dispatchedAt.Sub(r.enqueuedAt))
		}
		c.running++
		if c.running > c.peakRunning {
			c.peakRunning = c.running
		}
		c.dispatchMs.Add(float64(r.dispatchedAt.Sub(r.enqueuedAt).Nanoseconds()) / 1e6)
		go c.launch(r, lease)
	}
}

// execute drives one dispatched run to an outcome: runOnce within the
// lease, retrying on the lease's survivors after a worker failure, and
// requeueing (at the run's original admission position) when the lease is
// exhausted. This is Coordinator.launch in production; the scheduler
// benchmark substitutes a stub to measure pure dispatch machinery.
func (c *Coordinator) execute(r *pendingRun, lease []*workerConn) {
	for {
		res, err := c.runOnce(r.ctx, lease, r.g, r.p)
		if err == nil {
			c.runs.Add(1)
			c.settleRun(r, lease, runOutcome{res: res})
			return
		}
		c.runErrors.Add(1)
		if r.ctx.Err() != nil || !errors.Is(err, errWorkerFailure) {
			c.settleRun(r, lease, runOutcome{err: err})
			return
		}
		// Worker failure: the offender was expelled from the registry.
		// Narrow the lease to the survivors and retry — the partition
		// invariance makes the retry byte-identical, so the failure costs
		// time, never answers.
		c.mu.Lock()
		live := lease[:0]
		for _, w := range lease {
			if c.workers[w.id] == w {
				live = append(live, w)
			}
		}
		lease = live
		if len(lease) > 0 {
			c.mu.Unlock()
			c.cfg.Log.Warn("run failed; retrying on lease survivors",
				"run", r.admit, "trace", obs.FromContext(r.ctx).ID(), "err", err, "survivors", len(lease))
			continue
		}
		// Lease exhausted. Re-enter the queue at the original admission
		// position — unless the fleet is empty, where ErrNoWorkers lets
		// the caller fall back in-process.
		c.running--
		if len(c.workers) == 0 {
			c.settleRunLocked(r, runOutcome{err: ErrNoWorkers})
			c.mu.Unlock()
			return
		}
		c.cfg.Log.Warn("run lost its whole lease; requeueing",
			"run", r.admit, "trace", obs.FromContext(r.ctx).ID(), "err", err)
		r.state = runQueued
		r.enqueuedAt = time.Now()
		c.requeueLocked(r)
		c.dispatchLocked()
		c.mu.Unlock()
		return
	}
}

// requeueLocked inserts r into the queue by admission order, so a
// requeued run resumes ahead of everything admitted after it.
func (c *Coordinator) requeueLocked(r *pendingRun) {
	i := sort.Search(len(c.queue), func(i int) bool { return c.queue[i].admit > r.admit })
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = r
}

// settleRun releases the run's lease, delivers the outcome, and gives the
// freed workers to the next queued run — the overlap point where one
// run's finish phase meets the next's dispatch.
func (c *Coordinator) settleRun(r *pendingRun, lease []*workerConn, out runOutcome) {
	if tr := obs.FromContext(r.ctx); tr != nil && !r.dispatchedAt.IsZero() {
		// Lease span: how long the run held workers, dispatch to settle
		// (retries on lease survivors included).
		tr.Observe("lease", "", 0, r.dispatchedAt.Sub(tr.Start()), time.Since(r.dispatchedAt))
	}
	c.mu.Lock()
	for _, w := range lease {
		if c.workers[w.id] == w && w.lease == r.admit {
			w.lease = 0
		}
	}
	c.running--
	c.settleRunLocked(r, out)
	c.dispatchLocked()
	c.mu.Unlock()
}

// settleRunLocked marks the run settled and delivers its outcome (done is
// buffered, so the send cannot block under mu). Idempotent.
func (c *Coordinator) settleRunLocked(r *pendingRun, out runOutcome) {
	if r.state == runSettled {
		return
	}
	r.state = runSettled
	if out.err == nil && !r.dispatchedAt.IsZero() {
		c.runDurTotal += time.Since(r.dispatchedAt)
		c.runsDone++
	}
	r.done <- out
}

// fleetChangedLocked reacts to a registry change: a join can dispatch a
// waiting run (or shrink a pending run's needed lease); a leave that
// empties the fleet fails every queued run with ErrNoWorkers so callers
// fall back in-process.
func (c *Coordinator) fleetChangedLocked() {
	if len(c.workers) == 0 {
		for _, r := range c.queue {
			c.settleRunLocked(r, runOutcome{err: ErrNoWorkers})
		}
		c.queue = c.queue[:0]
		return
	}
	c.dispatchLocked()
}

// RetryAfterSeconds estimates when queue capacity frees up, for 429
// Retry-After headers: pending runs over dispatch slots, scaled by the
// observed mean run duration (retry.AfterSeconds).
func (c *Coordinator) RetryAfterSeconds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	mean := time.Second
	if c.runsDone > 0 {
		mean = c.runDurTotal / time.Duration(c.runsDone)
	}
	return retry.AfterSeconds(len(c.queue)+c.running, len(c.workers), mean)
}
