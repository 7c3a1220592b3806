package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"antlayer/internal/island"
)

// faultCluster starts a coordinator plus a mix of healthy workers and
// workers behind fault links on loopback. Faulty workers run WITHOUT a
// reconnect loop, so a link that kills their connection removes them
// from the fleet for good — the shape of a crashed process.
func faultCluster(t *testing.T, cfg CoordinatorConfig, healthy int, faults []*faultLink) (*Coordinator, context.CancelFunc) {
	t.Helper()
	c, addr, ctx, cancel := startCoordinator(t, cfg)
	for i, l := range faults {
		startWorker(ctx, l.start(t, ctx, addr), WorkerConfig{Name: fmt.Sprintf("faulty%d", i)}, false)
		waitWorkers(t, c, i+1)
	}
	for i := 0; i < healthy; i++ {
		startWorker(ctx, addr, WorkerConfig{Name: fmt.Sprintf("healthy%d", i)}, true)
		waitWorkers(t, c, len(faults)+i+1)
	}
	return c, cancel
}

func faultParams() island.Params {
	p := island.DefaultParams()
	p.Islands = 4
	p.Colony.Tours = 6
	p.Colony.Seed = 31
	p.MigrationInterval = 2
	return p
}

// runExpectingRetry runs distributed, asserting the result stays
// byte-identical to the in-process run and that exactly wantErrors failed
// attempts (expel-and-retry rounds) were burned.
func runExpectingRetry(t *testing.T, c *Coordinator, wantErrors int64) {
	t.Helper()
	g := testGraph(t, 50, 11)
	p := faultParams()
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("post-retry result diverged from the in-process run")
	}
	if m := c.Metrics(); m.RunErrors != wantErrors {
		t.Errorf("run_errors = %d, want %d", m.RunErrors, wantErrors)
	}
}

// TestWorkerDiesMidEpoch: a worker vanishes instead of answering the
// epoch-2 barrier; the coordinator must expel it mid-run and the retry on
// the survivor must stay byte-identical.
func TestWorkerDiesMidEpoch(t *testing.T) {
	c, cancel := faultCluster(t, CoordinatorConfig{}, 1, []*faultLink{{dieAtEpoch: 2}})
	defer cancel()
	runExpectingRetry(t, c, 1)
}

// TestWorkerDiesBetweenMigrateAndFinish: the worker consumes the migrate
// frame of epoch 1 — the coordinator has committed the exchange — and
// then dies before the next barrier. The run must be retried on the
// survivor, byte-identically.
func TestWorkerDiesBetweenMigrateAndFinish(t *testing.T) {
	c, cancel := faultCluster(t, CoordinatorConfig{}, 1, []*faultLink{{dieAfterMigrate: 1}})
	defer cancel()
	runExpectingRetry(t, c, 1)
}

// TestTwoWorkersDieSameEpoch: two of three workers die at the same epoch
// barrier. The coordinator expels them sequentially — one expel per
// failed attempt — and the second retry, down to the lone survivor,
// still produces the byte-identical result.
func TestTwoWorkersDieSameEpoch(t *testing.T) {
	c, cancel := faultCluster(t, CoordinatorConfig{}, 1,
		[]*faultLink{{dieAtEpoch: 2}, {dieAtEpoch: 2}})
	defer cancel()
	// Attempt 1: both doomed workers die at epoch 2 → first failure
	// aborts, expels one. Attempt 2: the other doomed worker dies again
	// (its fault never fired — the abort happened first) or already died;
	// either way at most two failed attempts precede the clean run.
	g := testGraph(t, 50, 11)
	p := faultParams()
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("post-retry result diverged from the in-process run")
	}
	m := c.Metrics()
	if m.RunErrors < 1 || m.RunErrors > 2 {
		t.Errorf("run_errors = %d, want 1 or 2 (sequential expels)", m.RunErrors)
	}
	if m.Workers != 1 {
		t.Errorf("fleet = %d after both deaths, want the lone survivor", m.Workers)
	}
}

// TestSlowWorkerStillCorrect: a worker whose epoch frames arrive late
// drags the barrier but never corrupts it; the per-shard epoch latency
// metrics must show the drag.
func TestSlowWorkerStillCorrect(t *testing.T) {
	const delay = 30 * time.Millisecond
	c, cancel := faultCluster(t, CoordinatorConfig{}, 1, []*faultLink{{holdEpoch: delay}})
	defer cancel()
	g := testGraph(t, 50, 11)
	p := faultParams()
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("distributed run with slow worker: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("slow-worker result diverged from the in-process run")
	}
	m := c.Metrics()
	if m.RunErrors != 0 {
		t.Errorf("run_errors = %d, want 0 (slow is not dead)", m.RunErrors)
	}
	var slowMax float64
	for _, wm := range m.PerWorker {
		if strings.HasPrefix(wm.Name, "faulty") {
			slowMax = wm.MaxEpochMs
		}
	}
	if slowMax < float64(delay.Milliseconds()) {
		t.Errorf("slow shard max epoch = %.1fms, want >= %dms", slowMax, delay.Milliseconds())
	}
}

// TestCancelledRunKeepsLease: a distributed run cut short by its deadline
// tells its workers to drop the run and leaves them registered. These
// workers have no reconnect loop, so the fleet that serves the next run,
// byte-identically, is the very one the cancelled run leased.
func TestCancelledRunKeepsLease(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	startWorker(ctx, addr, WorkerConfig{Name: "w0"}, false)
	startWorker(ctx, addr, WorkerConfig{Name: "w1"}, false)
	waitWorkers(t, c, 2)
	ids := func() []int {
		var ids []int
		for _, w := range c.Metrics().PerWorker {
			ids = append(ids, w.ID)
		}
		return ids
	}
	before := ids()

	g := testGraph(t, 80, 13)
	p := schedParams(2, 8)
	p.Colony.Tours = 100000
	runCtx, cancelRun := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelRun()
	if _, err := c.RunIsland(runCtx, g, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the run's deadline", err)
	}
	if got := ids(); !reflect.DeepEqual(got, before) {
		t.Fatalf("workers %v right after the cancelled run, want %v still registered", got, before)
	}

	p.Colony.Tours = 4
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("run after the cancelled one: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("run after the cancelled one diverged from the in-process run")
	}
}

// TestBarrierBlamesMisreportingWorker: a worker whose epoch frame carries
// elites for islands it was not assigned is the one expelled. The fake
// below speaks the raw protocol, holds the lease's first slot (island 0)
// and answers epoch 1 with an elite for island 1, its honest neighbour's;
// the retry on the honest worker must return the in-process bytes.
func TestBarrierBlamesMisreportingWorker(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{})
	defer cancel()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var welcome message
	if err := writeFrame(conn, &message{Type: msgHello, Name: "liar"}); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(conn, &welcome, maxFrame); err != nil || welcome.Type != msgWelcome {
		t.Fatalf("fake registration: %v (got %q)", err, welcome.Type)
	}
	go func() {
		// Lie once, then stay silent until the coordinator hangs up.
		lied := false
		for {
			var m message
			if readFrame(conn, &m, maxFrame) != nil {
				return
			}
			if m.Type == msgRun && !lied {
				lied = true
				lie := []island.Elite{{Island: 1, Objective: 1}}
				_ = writeFrame(conn, &message{Type: msgEpoch, Seq: m.Seq, Epoch: 1, Elites: lie})
			}
		}
	}()
	waitWorkers(t, c, 1)
	startWorker(ctx, addr, WorkerConfig{Name: "honest"}, false)
	waitWorkers(t, c, 2)

	g := testGraph(t, 40, 19)
	p := schedParams(2, 66)
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelRun()
	res, err := c.RunIsland(runCtx, g, p)
	if err != nil {
		t.Fatalf("run with a misreporting worker: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("retry after the misreport diverged from the in-process run")
	}
	m := c.Metrics()
	if len(m.PerWorker) != 1 || m.PerWorker[0].Name != "honest" {
		t.Errorf("fleet after the run = %+v, want just the honest worker", m.PerWorker)
	}
	if m.RunErrors != 1 {
		t.Errorf("run_errors = %d, want 1 (the misreport)", m.RunErrors)
	}
}

// TestHeartbeatLiveness: workers heartbeat, the coordinator counts the
// beats, and a peer that says hello and then nothing is expelled by its
// reader's deadline within the timeout — without any run touching it.
func TestHeartbeatLiveness(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{HeartbeatTimeout: 300 * time.Millisecond})
	defer cancel()

	// A chatty worker beating at the cadence its welcome named...
	startWorker(ctx, addr, WorkerConfig{Name: "chatty"}, false)
	waitWorkers(t, c, 1)
	// ...and a mute peer that registers and then never speaks again.
	mute, welcome := helloPeer(t, addr, "mute")
	defer mute.Close()
	if welcome.HeartbeatMs != 60 {
		t.Errorf("welcome heartbeat_ms = %d, want 60 (a fifth of the timeout)", welcome.HeartbeatMs)
	}
	waitWorkers(t, c, 2)

	// The deadline must expel the mute peer and keep the chatty worker.
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("mute peer never expelled (fleet %d)", c.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := c.Metrics()
	if m.HeartbeatExpels != 1 {
		t.Errorf("heartbeat_expels = %d, want 1", m.HeartbeatExpels)
	}
	if m.HeartbeatTimeoutMs != 300 {
		t.Errorf("heartbeat_timeout_ms = %v, want 300", m.HeartbeatTimeoutMs)
	}
	if len(m.PerWorker) != 1 || m.PerWorker[0].Name != "chatty" {
		t.Fatalf("surviving fleet = %+v, want just chatty", m.PerWorker)
	}
	if m.PerWorker[0].Heartbeats == 0 {
		t.Error("chatty worker's heartbeats were not counted")
	}

	// The survivor still serves runs.
	g := testGraph(t, 30, 5)
	p := island.DefaultParams()
	p.Colony.Tours = 3
	if _, err := c.RunIsland(context.Background(), g, p); err != nil {
		t.Fatalf("run on surviving fleet: %v", err)
	}
}

// helloPeer registers a raw connection under name and returns it with
// the coordinator's welcome frame; the peer then says nothing unless the
// test writes to it.
func helloPeer(t *testing.T, addr, name string) (net.Conn, message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var welcome message
	if err := writeFrame(conn, &message{Type: msgHello, Name: name}); err != nil {
		t.Fatal(err)
	}
	if err := readFrame(conn, &welcome, maxFrame); err != nil || welcome.Type != msgWelcome {
		t.Fatalf("registration answered %q, err %v", welcome.Type, err)
	}
	return conn, welcome
}

// TestWorkerTakesCoordinatorCadence: the coordinator alone decides
// liveness. A worker configured with nothing beats at the cadence its
// welcome names, so it stays registered under a 300ms timeout, shorter
// than the 2s cadence of the default timeout.
func TestWorkerTakesCoordinatorCadence(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{HeartbeatTimeout: 300 * time.Millisecond})
	defer cancel()
	startWorker(ctx, addr, WorkerConfig{}, false)
	waitWorkers(t, c, 1)
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if m := c.Metrics(); m.Workers != 1 || m.HeartbeatExpels != 0 {
			t.Fatalf("worker expelled under its coordinator's timeout: fleet %d, heartbeat_expels %d", m.Workers, m.HeartbeatExpels)
		}
	}
	if m := c.Metrics(); len(m.PerWorker) != 1 || m.PerWorker[0].Heartbeats == 0 {
		t.Errorf("the worker's heartbeats were not counted: %+v", m.PerWorker)
	}

	// Expulsion off asks for no beats; a timeout under 5ms still asks for
	// some, at the 1ms the field can carry.
	for _, tc := range []struct {
		timeout time.Duration
		want    int64
	}{{-1, 0}, {3 * time.Millisecond, 1}} {
		_, addr, _, cancel := startCoordinator(t, CoordinatorConfig{HeartbeatTimeout: tc.timeout})
		conn, welcome := helloPeer(t, addr, "peer")
		conn.Close()
		cancel()
		if welcome.HeartbeatMs != tc.want {
			t.Errorf("timeout %v: welcome heartbeat_ms = %d, want %d", tc.timeout, welcome.HeartbeatMs, tc.want)
		}
	}
}

// TestHeartbeatsFlowDuringLongEpochs: a worker stuck in a slow epoch
// (its epoch frames held past the liveness timeout) must NOT be
// expelled — the background heartbeat, at the 40ms cadence the welcome
// names, keeps satisfying the reader's deadline, distinguishing slow
// from dead. The worker's epoch metrics show the premise: an epoch took
// well past the timeout, and beats arrived meanwhile.
func TestHeartbeatsFlowDuringLongEpochs(t *testing.T) {
	c, addr, ctx, cancel := startCoordinator(t, CoordinatorConfig{HeartbeatTimeout: 200 * time.Millisecond})
	defer cancel()
	slow := (&faultLink{holdEpoch: 500 * time.Millisecond}).start(t, ctx, addr)
	startWorker(ctx, slow, WorkerConfig{Name: "slowpoke"}, false)
	waitWorkers(t, c, 1)

	g := testGraph(t, 30, 5)
	p := island.DefaultParams()
	p.Islands = 2
	p.Colony.Tours = 2
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("slow epochs got the worker expelled: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("result diverged")
	}
	m := c.Metrics()
	if m.HeartbeatExpels != 0 {
		t.Errorf("heartbeat_expels = %d, want 0 (slow is not dead)", m.HeartbeatExpels)
	}
	if len(m.PerWorker) != 1 {
		t.Fatalf("%d workers in the metrics, want 1", len(m.PerWorker))
	}
	if w := m.PerWorker[0]; w.MaxEpochMs < 400 || w.Heartbeats == 0 {
		t.Errorf("max_epoch_ms = %.1f, heartbeats = %d: want an epoch >= 400ms, past the 200ms timeout, with beats", w.MaxEpochMs, w.Heartbeats)
	}
}
