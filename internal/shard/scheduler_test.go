package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"antlayer/internal/island"
)

// startCoordinator brings up a coordinator on loopback with the given
// config; workers are started by the caller (see startWorker), so tests
// control registration order, fault links, and reconnect behaviour.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, string, context.Context, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ctx, ln) }()
	return c, ln.Addr().String(), ctx, cancel
}

// startWorker runs one worker against addr; with reconnect it redials
// after a dropped connection, mirroring `daglayer worker -retry`.
func startWorker(ctx context.Context, addr string, cfg WorkerConfig, reconnect bool) {
	w := NewWorker(cfg)
	go func() {
		for {
			_ = w.Run(ctx, addr)
			if !reconnect || ctx.Err() != nil {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
}

// schedParams is a small, fast run shape for scheduler tests.
func schedParams(k int, seed int64) island.Params {
	p := island.DefaultParams()
	p.Islands = k
	p.Colony.Tours = 4
	p.Colony.Seed = seed
	p.MigrationInterval = 1
	return p
}

// TestConcurrentRunsByteIdentical is the tentpole invariant under
// concurrency: two distributed runs in flight at once, on disjoint
// leases carved from one fleet, each return exactly the bytes of their
// solo in-process run — at several (fleet, K₁, K₂) shapes.
func TestConcurrentRunsByteIdentical(t *testing.T) {
	shapes := []struct{ fleet, k1, k2 int }{
		{4, 2, 2}, // the issue's headline shape: two K=2 runs on 4 workers
		{3, 2, 1},
		{5, 3, 2},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("fleet=%d_k1=%d_k2=%d", sh.fleet, sh.k1, sh.k2), func(t *testing.T) {
			g1, g2 := testGraph(t, 50, 101), testGraph(t, 60, 202)
			p1, p2 := schedParams(sh.k1, 11), schedParams(sh.k2, 22)
			want1, err := island.Run(context.Background(), g1, p1)
			if err != nil {
				t.Fatal(err)
			}
			want2, err := island.Run(context.Background(), g2, p2)
			if err != nil {
				t.Fatal(err)
			}

			c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
			defer cancel()
			for i := 0; i < sh.fleet; i++ {
				startWorker(ctx, addr, WorkerConfig{Name: fmt.Sprintf("w%d", i)}, true)
			}
			waitWorkers(t, c, sh.fleet)

			var wg sync.WaitGroup
			var res1, res2 *island.Result
			var err1, err2 error
			wg.Add(2)
			go func() { defer wg.Done(); res1, err1 = c.RunIsland(context.Background(), g1, p1) }()
			go func() { defer wg.Done(); res2, err2 = c.RunIsland(context.Background(), g2, p2) }()
			wg.Wait()
			if err1 != nil || err2 != nil {
				t.Fatalf("concurrent runs failed: %v / %v", err1, err2)
			}
			if fingerprint(res1) != fingerprint(want1) {
				t.Errorf("run 1 diverged from its in-process reference")
			}
			if fingerprint(res2) != fingerprint(want2) {
				t.Errorf("run 2 diverged from its in-process reference")
			}
			m := c.Metrics()
			if m.Runs != 2 || m.RunErrors != 0 {
				t.Errorf("runs=%d errors=%d, want 2/0", m.Runs, m.RunErrors)
			}
			if m.IdleWorkers != sh.fleet {
				t.Errorf("idle_workers=%d after both runs settled, want %d", m.IdleWorkers, sh.fleet)
			}
		})
	}
}

// TestConcurrentRunsOverlap pins that the scheduler actually runs two
// runs at once (not merely interleaves them): with every epoch frame held
// on the wire, two K=2 runs on a 4-worker fleet must both hold leases
// simultaneously — the concurrent-run high-water mark reaches 2. Every
// worker's slowest epoch shows the hold took effect.
func TestConcurrentRunsOverlap(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	slow := (&faultLink{holdEpoch: 20 * time.Millisecond}).start(t, ctx, addr)
	for i := 0; i < 4; i++ {
		startWorker(ctx, slow, WorkerConfig{Name: fmt.Sprintf("w%d", i)}, true)
	}
	waitWorkers(t, c, 4)

	g := testGraph(t, 40, 7)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RunIsland(context.Background(), g, schedParams(2, int64(100+i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	m := c.Metrics()
	if m.PeakConcurrentRuns < 2 {
		t.Errorf("peak_concurrent_runs=%d, want >= 2 (runs serialized)", m.PeakConcurrentRuns)
	}
	if m.DispatchMs.Count < 2 {
		t.Errorf("dispatch_ms.count=%d, want >= 2", m.DispatchMs.Count)
	}
	if len(m.PerWorker) != 4 {
		t.Fatalf("%d workers in the metrics, want 4", len(m.PerWorker))
	}
	for _, w := range m.PerWorker {
		if w.MaxEpochMs < 20 {
			t.Errorf("worker %s: max_epoch_ms = %.1f, want >= the link's 20ms hold", w.Name, w.MaxEpochMs)
		}
	}
}

// waitMetrics polls the coordinator until cond holds (or fails the test).
func waitMetrics(t *testing.T, c *Coordinator, what string, cond func(ClusterMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(c.Metrics()) {
		if time.Now().After(deadline) {
			t.Fatalf("condition %q never held (metrics %+v)", what, c.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunQueueFullRejected fills the admission queue and checks the
// overflow run is rejected with ErrRunQueueFull while the admitted runs
// still complete correctly.
func TestRunQueueFullRejected(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{QueueDepth: 1})
	defer cancel()
	slow := (&faultLink{holdEpoch: 30 * time.Millisecond}).start(t, ctx, addr)
	startWorker(ctx, slow, WorkerConfig{Name: "slow"}, true)
	waitWorkers(t, c, 1)

	g := testGraph(t, 40, 9)
	p := schedParams(1, 5)
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 2)
	runDistributed := func() {
		res, err := c.RunIsland(context.Background(), g, p)
		if err == nil && fingerprint(res) != fingerprint(want) {
			err = errors.New("diverged from in-process reference")
		}
		results <- err
	}
	go runDistributed()
	waitMetrics(t, c, "first run in flight", func(m ClusterMetrics) bool { return m.RunsInFlight == 1 })
	go runDistributed()
	waitMetrics(t, c, "second run queued", func(m ClusterMetrics) bool { return m.RunsQueued == 1 })

	if _, err := c.RunIsland(context.Background(), g, p); !errors.Is(err, ErrRunQueueFull) {
		t.Fatalf("overflow run: err=%v, want ErrRunQueueFull", err)
	}
	if ra := c.RetryAfterSeconds(); ra < 1 || ra > 30 {
		t.Errorf("RetryAfterSeconds()=%d, want within [1,30]", ra)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted run %d: %v", i, err)
		}
	}
	m := c.Metrics()
	if m.RunsRejected != 1 {
		t.Errorf("runs_rejected=%d, want 1", m.RunsRejected)
	}
	if m.RunQueueBound != 1 {
		t.Errorf("run_queue_bound=%d, want 1", m.RunQueueBound)
	}
}

// TestLeaseExhaustedRequeues kills a run's entire (single-worker) lease:
// the run must re-enter the queue, dispatch onto the surviving worker,
// and still return the in-process bytes.
func TestLeaseExhaustedRequeues(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	// Registration order fixes lease order (leases take lowest ids
	// first): the doomed worker must be id 1 so the first dispatch
	// leases it — and it never reconnects, exhausting the lease.
	doomed := (&faultLink{dieAtEpoch: 1}).start(t, ctx, addr)
	startWorker(ctx, doomed, WorkerConfig{Name: "doomed"}, false)
	waitWorkers(t, c, 1)
	startWorker(ctx, addr, WorkerConfig{Name: "healthy"}, true)
	waitWorkers(t, c, 2)

	g := testGraph(t, 40, 17)
	p := schedParams(1, 33)
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("run after lease exhaustion: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("requeued run diverged from in-process result")
	}
	m := c.Metrics()
	if m.Runs != 1 || m.RunErrors != 1 {
		t.Errorf("runs=%d errors=%d, want 1/1 (one failed attempt, one success)", m.Runs, m.RunErrors)
	}
}

// TestQueuedRunDispatchesOnJoin parks a run in the queue behind a busy
// single-worker fleet, then registers a second worker: the join must
// dispatch the waiting run immediately (rebalance-on-join for pending
// runs), overlapping it with the in-flight one.
func TestQueuedRunDispatchesOnJoin(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	slow := (&faultLink{holdEpoch: 25 * time.Millisecond}).start(t, ctx, addr)
	startWorker(ctx, slow, WorkerConfig{Name: "busy"}, true)
	waitWorkers(t, c, 1)

	g := testGraph(t, 40, 21)
	p := schedParams(1, 44)
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 2)
	runDistributed := func() {
		res, err := c.RunIsland(context.Background(), g, p)
		if err == nil && fingerprint(res) != fingerprint(want) {
			err = errors.New("diverged from in-process reference")
		}
		results <- err
	}
	go runDistributed()
	waitMetrics(t, c, "first run in flight", func(m ClusterMetrics) bool { return m.RunsInFlight == 1 })
	go runDistributed()
	waitMetrics(t, c, "second run queued", func(m ClusterMetrics) bool { return m.RunsQueued == 1 })

	startWorker(ctx, addr, WorkerConfig{Name: "joiner"}, true)
	waitMetrics(t, c, "queued run dispatched on join", func(m ClusterMetrics) bool { return m.RunsQueued == 0 })
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	if m := c.Metrics(); m.PeakConcurrentRuns < 2 {
		t.Errorf("peak_concurrent_runs=%d, want >= 2 (join did not overlap the runs)", m.PeakConcurrentRuns)
	}
}

// TestCancelledWhileQueued cancels a run that never got workers: it must
// leave the queue promptly with a queued-cancellation error, without
// disturbing the in-flight run.
func TestCancelledWhileQueued(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	slow := (&faultLink{holdEpoch: 25 * time.Millisecond}).start(t, ctx, addr)
	startWorker(ctx, slow, WorkerConfig{Name: "busy"}, true)
	waitWorkers(t, c, 1)

	g := testGraph(t, 40, 27)
	p := schedParams(1, 55)
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.RunIsland(context.Background(), g, p)
		firstDone <- err
	}()
	waitMetrics(t, c, "first run in flight", func(m ClusterMetrics) bool { return m.RunsInFlight == 1 })

	runCtx, cancelRun := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, err := c.RunIsland(runCtx, g, p)
		queuedDone <- err
	}()
	waitMetrics(t, c, "second run queued", func(m ClusterMetrics) bool { return m.RunsQueued == 1 })
	cancelRun()
	select {
	case err := <-queuedDone:
		if err == nil || !strings.Contains(err.Error(), "queued") {
			t.Errorf("queued cancellation err = %v, want a queued-cancellation error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued run never returned")
	}
	waitMetrics(t, c, "queue empty after cancel", func(m ClusterMetrics) bool { return m.RunsQueued == 0 })
	if err := <-firstDone; err != nil {
		t.Errorf("in-flight run disturbed by queued cancellation: %v", err)
	}
}

// TestLeaseExactlySized: a K-island run on a larger fleet leases exactly
// K workers — the others never see the run (DESIGN.md §12; runOnce takes
// the lease as-is, with no re-truncation).
func TestLeaseExactlySized(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	for i := 0; i < 3; i++ {
		startWorker(ctx, addr, WorkerConfig{Name: fmt.Sprintf("w%d", i)}, true)
	}
	waitWorkers(t, c, 3)
	g := testGraph(t, 12, 2)
	if _, err := c.RunIsland(context.Background(), g, schedParams(2, 7)); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	participated := 0
	for _, w := range m.PerWorker {
		if w.Epochs > 0 {
			participated++
		}
		if w.State != "idle" {
			t.Errorf("worker %s still %q after the run settled", w.Name, w.State)
		}
	}
	if participated != 2 {
		t.Errorf("%d workers participated, want exactly 2 (lease size)", participated)
	}
}
