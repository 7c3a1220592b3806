package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"antlayer/internal/chaos"
	"antlayer/internal/shard"
)

// testCluster starts a coordinator plus n in-process workers on loopback
// and tears them down with the test.
func testCluster(t *testing.T, n int) *shard.Coordinator {
	return testClusterCfg(t, n, shard.CoordinatorConfig{}, 0)
}

// testClusterCfg is testCluster with an explicit coordinator config and,
// when link is positive, a slow fleet: the workers dial through a
// chaos.Relay that delays every frame they send by link.
func testClusterCfg(t *testing.T, n int, cfg shard.CoordinatorConfig, link time.Duration) *shard.Coordinator {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	coord := shard.NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = coord.Serve(ctx, ln) }()
	addr := ln.Addr().String()
	if link > 0 {
		r, err := chaos.StartRelay(addr, link)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		addr = r.Addr()
	}
	for i := 0; i < n; i++ {
		w := shard.NewWorker(shard.WorkerConfig{Name: fmt.Sprintf("tw%d", i)})
		go func() { _ = w.Run(ctx, addr) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Workers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return coord
}

// TestLayerDistributedByteIdentical pins the headline invariant at the
// HTTP layer: with the cache disabled (so both answers really compute),
// a distributed=true island request returns byte-for-byte the body of
// the in-process request — across two different fleet sizes, i.e. two
// different partitions of the islands.
func TestLayerDistributedByteIdentical(t *testing.T) {
	const query = "algo=island&islands=4&tours=3&migration-interval=1&seed=9"
	_, plainTS := newTestServer(t, Config{CacheSize: -1})
	_, wantBody := postLayer(t, plainTS, query, demoDOT)

	for _, workers := range []int{2, 3} {
		coord := testCluster(t, workers)
		_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})
		resp, body := postLayer(t, ts, query+"&distributed=true", demoDOT)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, body)
		}
		if !bytes.Equal(body, wantBody) {
			t.Errorf("workers=%d: distributed body diverges from in-process:\n%s\n%s", workers, body, wantBody)
		}
		snap := mustMetrics(t, ts.URL)
		if snap.DistributedRuns != 1 {
			t.Errorf("workers=%d: distributed_runs = %d, want 1", workers, snap.DistributedRuns)
		}
		if snap.Cluster == nil || snap.Cluster.Workers != workers {
			t.Errorf("workers=%d: cluster metrics %+v", workers, snap.Cluster)
		} else if snap.Cluster.Runs != 1 || len(snap.Cluster.PerWorker) != workers {
			t.Errorf("workers=%d: cluster run accounting %+v", workers, snap.Cluster)
		}
	}
}

// TestLayerDistributedSharesCacheWithLocal: distributed is excluded from
// the cache key, so a local request primes the cache for a distributed
// one (and vice versa) — the bodies are identical by construction.
func TestLayerDistributedSharesCacheWithLocal(t *testing.T) {
	coord := testCluster(t, 2)
	_, ts := newTestServer(t, Config{Coordinator: coord})
	const query = "algo=island&islands=2&tours=2&migration-interval=1&seed=4"
	resp1, body1 := postLayer(t, ts, query, demoDOT)
	if resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: X-Cache %q", resp1.Header.Get("X-Cache"))
	}
	resp2, body2 := postLayer(t, ts, query+"&distributed=true", demoDOT)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("distributed twin missed the cache: X-Cache %q", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached distributed body differs")
	}
}

// TestLayerDistributedFallsBackWithoutWorkers: a coordinator daemon with
// an empty fleet still answers — in-process, counted as a fallback.
func TestLayerDistributedFallsBackWithoutWorkers(t *testing.T) {
	coord := testCluster(t, 0)
	_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})
	resp, body := postLayer(t, ts, "algo=island&islands=2&tours=2&distributed=true", demoDOT)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	snap := mustMetrics(t, ts.URL)
	if snap.DistributedFallbacks != 1 || snap.DistributedRuns != 0 {
		t.Errorf("fallbacks=%d runs=%d, want 1/0", snap.DistributedFallbacks, snap.DistributedRuns)
	}
}

func TestLayerDistributedRequiresCoordinator(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postLayer(t, ts, "algo=island&distributed=true", demoDOT)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestLayerDistributedRequiresIsland(t *testing.T) {
	coord := testCluster(t, 1)
	_, ts := newTestServer(t, Config{Coordinator: coord})
	resp, body := postLayer(t, ts, "algo=lpl&distributed=true", demoDOT)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestJobsDistributed runs a distributed island job through the async
// path: the done body must equal the in-process /layer body.
func TestJobsDistributed(t *testing.T) {
	coord := testCluster(t, 2)
	_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})
	const query = "algo=island&islands=3&tours=2&migration-interval=1&seed=6"
	resp, status := postJob(t, ts, query+"&distributed=true", demoDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, status.raw)
	}
	_, view := pollUntilTerminal(t, ts, status.ID)

	_, plainTS := newTestServer(t, Config{CacheSize: -1})
	_, want := postLayer(t, plainTS, query, demoDOT)
	if !bytes.Equal(view.raw, want) {
		t.Errorf("distributed job body diverges:\n%s\n%s", view.raw, want)
	}
}

// TestClusterEndpoint covers GET /cluster on coordinator and
// non-coordinator daemons.
func TestClusterEndpoint(t *testing.T) {
	_, plainTS := newTestServer(t, Config{})
	resp, err := http.Get(plainTS.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-coordinator /cluster status %d", resp.StatusCode)
	}

	coord := testCluster(t, 2)
	_, ts := newTestServer(t, Config{Coordinator: coord})
	resp, err = http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m shard.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Workers != 2 {
		t.Errorf("cluster reports %d workers, want 2", m.Workers)
	}
}

// TestLayerDistributedConcurrentByteIdentical is the tentpole at the
// HTTP layer: two different K=2 distributed requests on a 4-worker fleet
// run at the same time (a slow link keeps each run in flight long enough
// that the scheduler must overlap them), and each body is
// byte-identical to its in-process twin. The daemon has a single compute
// slot, which distributed runs never take.
func TestLayerDistributedConcurrentByteIdentical(t *testing.T) {
	queries := []string{
		"algo=island&islands=2&tours=3&migration-interval=1&seed=41",
		"algo=island&islands=2&tours=3&migration-interval=1&seed=42",
	}
	// Warm starting is off on both servers: the two requests share a graph,
	// so the second would otherwise inherit the first's pheromone state —
	// deterministically when sequential, timing-dependently when
	// concurrent — and the bodies compared here would no longer be twins.
	_, plainTS := newTestServer(t, Config{CacheSize: -1, WarmCacheBytes: -1})
	want := make([][]byte, len(queries))
	for i, q := range queries {
		_, want[i] = postLayer(t, plainTS, q, demoDOT)
	}

	coord := testClusterCfg(t, 4, shard.CoordinatorConfig{}, 15*time.Millisecond)
	// One compute slot: distributed runs on a live fleet take none, so the
	// scheduler still sees both runs at once.
	_, ts := newTestServer(t, Config{CacheSize: -1, WarmCacheBytes: -1, MaxConcurrent: 1, Coordinator: coord})
	type result struct {
		i    int
		code int
		body []byte
	}
	results := make(chan result, len(queries))
	for i, q := range queries {
		go func(i int, q string) {
			resp, body := postLayer(t, ts, q+"&distributed=true", demoDOT)
			results <- result{i, resp.StatusCode, body}
		}(i, q)
	}
	for range queries {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", r.i, r.code, r.body)
		}
		if !bytes.Equal(r.body, want[r.i]) {
			t.Errorf("request %d: concurrent distributed body diverges from in-process", r.i)
		}
	}
	cm := coord.Metrics()
	if cm.Runs != 2 || cm.RunErrors != 0 {
		t.Errorf("cluster runs=%d errors=%d, want 2/0", cm.Runs, cm.RunErrors)
	}
	if cm.PeakConcurrentRuns < 2 {
		t.Errorf("peak_concurrent_runs=%d, want >= 2 (the runs serialized)", cm.PeakConcurrentRuns)
	}
}

// TestLayerRunQueueFull429: when the scheduler cannot admit a
// distributed run, /layer answers 429 with a stats-derived Retry-After —
// it must not silently fall back in-process (the cluster being saturated
// is not the same as the cluster being absent).
func TestLayerRunQueueFull429(t *testing.T) {
	coord := testClusterCfg(t, 1, shard.CoordinatorConfig{QueueDepth: -1}, 50*time.Millisecond)
	_, ts := newTestServer(t, Config{CacheSize: -1, Coordinator: coord})

	first := make(chan []byte, 1)
	go func() {
		_, body := postLayer(t, ts, "algo=island&islands=1&tours=4&migration-interval=1&seed=51&distributed=true", demoDOT)
		first <- body
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.Metrics().RunsInFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first distributed run never dispatched")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postLayer(t, ts, "algo=island&islands=1&tours=4&migration-interval=1&seed=52&distributed=true", demoDOT)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated scheduler answered %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	<-first
	if cm := coord.Metrics(); cm.RunsRejected != 1 {
		t.Errorf("runs_rejected=%d, want 1", cm.RunsRejected)
	}
}

// mustMetrics fetches and decodes /metrics.
func mustMetrics(t *testing.T, baseURL string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}
