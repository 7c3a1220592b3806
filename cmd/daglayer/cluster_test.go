package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"antlayer/internal/chaos"
)

// TestClusterEndToEnd is the multi-process acceptance test: a coordinator
// daemon plus real worker processes on loopback must answer a
// distributed island request byte-identically to the same daemon's
// in-process answer — first with 2 workers, then with 3 (a different
// partition of the islands). The cache is disabled so every answer is a
// real computation.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	bin := buildDaglayer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serve := exec.CommandContext(ctx, bin, "serve",
		"-addr", "127.0.0.1:0", "-coordinator", "127.0.0.1:0", "-cache", "-1")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel() // deferred LIFO: kill the process tree before waiting on it
		_ = serve.Wait()
	}()
	httpAddr, coordAddr := scanServeAddrs(t, stdout)
	baseURL := "http://" + httpAddr

	startWorker := func(name string) {
		w := exec.CommandContext(ctx, bin, "worker", "-coordinator", coordAddr, "-name", name)
		w.Stdout = io.Discard
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Wait() }()
	}
	startWorker("w1")
	startWorker("w2")
	waitFleet(t, baseURL, 2)

	// warm=false: with the result cache off, the repeat requests below
	// would otherwise warm-start from the first answer's pheromone state
	// and run fewer tours — this test compares full recomputations.
	const query = "algo=island&islands=4&tours=3&migration-interval=1&seed=9&warm=false"
	want := postLayerHTTP(t, baseURL, query, demoDOT)
	got2 := postLayerHTTP(t, baseURL, query+"&distributed=true", demoDOT)
	if !bytes.Equal(got2, want) {
		t.Errorf("2-worker distributed body diverges from in-process:\n%s\n%s", got2, want)
	}

	startWorker("w3")
	waitFleet(t, baseURL, 3)
	got3 := postLayerHTTP(t, baseURL, query+"&distributed=true", demoDOT)
	if !bytes.Equal(got3, want) {
		t.Errorf("3-worker distributed body diverges from in-process:\n%s\n%s", got3, want)
	}

	// The cluster endpoint accounted the runs and shards.
	var cluster struct {
		Workers   int `json:"workers"`
		Runs      int64
		Epochs    int64
		PerWorker []struct {
			Name   string `json:"name"`
			Epochs int64  `json:"epochs"`
		} `json:"per_worker"`
	}
	getJSON(t, baseURL+"/cluster", &cluster)
	if cluster.Workers != 3 || cluster.Runs != 2 || cluster.Epochs == 0 {
		t.Errorf("cluster metrics: %+v", cluster)
	}
}

// TestClusterConcurrentRuns is the scheduler's multi-process acceptance
// test: on a 4-worker fleet behind a slow link, so that runs
// demonstrably overlap, two K=2 distributed requests must (a) finish as
// a pair in well under 1.5x one run's wall-clock — i.e. actually run
// concurrently on disjoint leases — and (b) each answer byte-identically
// to the same daemon's in-process answer. A third run then has a leased
// worker SIGKILLed mid-flight and must still come back byte-identical.
func TestClusterConcurrentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	bin := buildDaglayer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serve := exec.CommandContext(ctx, bin, "serve",
		"-addr", "127.0.0.1:0", "-coordinator", "127.0.0.1:0",
		"-cache", "-1", "-heartbeat-timeout", "1s")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		_ = serve.Wait()
	}()
	httpAddr, coordAddr := scanServeAddrs(t, stdout)
	baseURL := "http://" + httpAddr

	// Every frame a worker sends reaches the coordinator 45ms late: three
	// epochs and a report make a run take about 180ms.
	link, err := chaos.StartRelay(coordAddr, 45*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	workers := make(map[string]*exec.Cmd, 4)
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("cw%d", i)
		w := exec.CommandContext(ctx, bin, "worker", "-coordinator", link.Addr(),
			"-name", name, "-quiet")
		w.Stdout = io.Discard
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[name] = w
		go func() { _ = w.Wait() }()
	}
	waitFleet(t, baseURL, 4)

	// warm=false for the same reason as TestClusterEndToEnd: every body
	// here must be a full recomputation, not a warm resume of a twin.
	query := func(seed int) string {
		return fmt.Sprintf("algo=island&islands=2&tours=3&migration-interval=1&seed=%d&warm=false", seed)
	}
	// In-process references from the same daemon (cache disabled, so the
	// distributed twins below really compute).
	want41 := postLayerHTTP(t, baseURL, query(41), demoDOT)
	want42 := postLayerHTTP(t, baseURL, query(42), demoDOT)
	want43 := postLayerHTTP(t, baseURL, query(43), demoDOT)

	// Warm the distributed path, then time one run solo.
	postLayerHTTP(t, baseURL, query(40)+"&distributed=true", demoDOT)
	start := time.Now()
	got41 := postLayerHTTP(t, baseURL, query(41)+"&distributed=true", demoDOT)
	single := time.Since(start)
	if !bytes.Equal(got41, want41) {
		t.Errorf("solo distributed body diverges from in-process:\n%s\n%s", got41, want41)
	}

	// The pair: both K=2, both in flight at once on the 4-worker fleet.
	type answer struct {
		i    int
		body []byte
		err  error
	}
	results := make(chan answer, 2)
	post := func(i int, q string) {
		resp, err := http.Post(baseURL+"/layer?"+q, "text/plain", strings.NewReader(demoDOT))
		if err != nil {
			results <- answer{i, nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		results <- answer{i, body, err}
	}
	wantPair := [][]byte{want41, want42}
	start = time.Now()
	go post(0, query(41)+"&distributed=true")
	go post(1, query(42)+"&distributed=true")
	for i := 0; i < 2; i++ {
		a := <-results
		if a.err != nil {
			t.Fatalf("concurrent distributed request %d: %v", a.i, a.err)
		}
		if !bytes.Equal(a.body, wantPair[a.i]) {
			t.Errorf("concurrent distributed body %d diverges from in-process:\n%s\n%s", a.i, a.body, wantPair[a.i])
		}
	}
	pair := time.Since(start)
	if pair >= single*3/2 {
		t.Errorf("pair wall-clock %v vs single %v: want < 1.5x (the runs serialized)", pair, single)
	}
	var cluster struct {
		PeakConcurrentRuns int64 `json:"peak_concurrent_runs"`
		PerWorker          []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"per_worker"`
	}
	getJSON(t, baseURL+"/cluster", &cluster)
	if cluster.PeakConcurrentRuns < 2 {
		t.Errorf("peak_concurrent_runs = %d, want >= 2", cluster.PeakConcurrentRuns)
	}

	// Mid-run worker kill: start a third run, SIGKILL a worker while it
	// holds the lease, and the retried (or re-queued) run must still be
	// byte-identical.
	third := make(chan answer, 1)
	go func() {
		resp, err := http.Post(baseURL+"/layer?"+query(43)+"&distributed=true", "text/plain", strings.NewReader(demoDOT))
		if err != nil {
			third <- answer{2, nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		third <- answer{2, body, err}
	}()
	killed := false
	deadline := time.Now().Add(5 * time.Second)
	for !killed && time.Now().Before(deadline) {
		getJSON(t, baseURL+"/cluster", &cluster)
		for _, w := range cluster.PerWorker {
			if w.State == "leased" {
				if cmd, ok := workers[w.Name]; ok {
					_ = cmd.Process.Kill()
					delete(workers, w.Name)
					killed = true
				}
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !killed {
		t.Fatal("never caught a leased worker to kill — the run finished too fast")
	}
	a := <-third
	if a.err != nil {
		t.Fatalf("distributed run after worker kill: %v", a.err)
	}
	if !bytes.Equal(a.body, want43) {
		t.Errorf("post-kill distributed body diverges from in-process:\n%s\n%s", a.body, want43)
	}
}

// TestClusterSecretEndToEnd pins the -cluster-secret flags across real
// processes: a worker presenting the right secret joins the fleet, one
// with the wrong secret is rejected at registration (a clean close — it
// exits on its first attempt with -retry 0, no expel needed).
func TestClusterSecretEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	bin := buildDaglayer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serve := exec.CommandContext(ctx, bin, "serve",
		"-addr", "127.0.0.1:0", "-coordinator", "127.0.0.1:0", "-cluster-secret", "open-sesame")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = os.Stderr
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel()
		_ = serve.Wait()
	}()
	httpAddr, coordAddr := scanServeAddrs(t, stdout)
	baseURL := "http://" + httpAddr

	intruder := exec.CommandContext(ctx, bin, "worker", "-coordinator", coordAddr,
		"-name", "intruder", "-cluster-secret", "wrong", "-retry", "0")
	intruder.Stdout = io.Discard
	intruder.Stderr = io.Discard
	if err := intruder.Start(); err != nil {
		t.Fatal(err)
	}
	if err := intruder.Wait(); err == nil {
		t.Error("worker with the wrong secret exited clean, want a rejection error")
	}

	member := exec.CommandContext(ctx, bin, "worker", "-coordinator", coordAddr,
		"-name", "member", "-cluster-secret", "open-sesame")
	member.Stdout = io.Discard
	member.Stderr = os.Stderr
	if err := member.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = member.Wait() }()
	waitFleet(t, baseURL, 1)

	var cluster struct {
		Workers   int `json:"workers"`
		PerWorker []struct {
			Name string `json:"name"`
		} `json:"per_worker"`
	}
	getJSON(t, baseURL+"/cluster", &cluster)
	if cluster.Workers != 1 || len(cluster.PerWorker) != 1 || cluster.PerWorker[0].Name != "member" {
		t.Errorf("fleet after rejected intruder: %+v", cluster)
	}
}

// buildDaglayer compiles the daglayer binary once per test binary.
var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

func buildDaglayer(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "daglayer-e2e-*")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "daglayer")
		cmd := exec.Command("go", "build", "-o", builtBin, ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

var (
	// The daemon announces its listen addresses via slog (text handler):
	// msg=listening for HTTP, msg="coordinator listening" for the shard
	// transport, each with the address as the addr attr.
	serveAddrRE = regexp.MustCompile(`\bmsg=listening addr=(\S+)`)
	coordAddrRE = regexp.MustCompile(`\bmsg="coordinator listening" addr=(\S+)`)
)

// scanServeAddrs reads the daemon's stdout until both the HTTP and the
// coordinator listen addresses have been logged, then keeps draining the
// pipe in the background.
func scanServeAddrs(t *testing.T, stdout io.Reader) (httpAddr, coordAddr string) {
	t.Helper()
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(30 * time.Second)
	for (httpAddr == "" || coordAddr == "") && sc.Scan() {
		line := sc.Text()
		if m := coordAddrRE.FindStringSubmatch(line); m != nil {
			coordAddr = m[1]
			continue
		}
		if m := serveAddrRE.FindStringSubmatch(line); m != nil {
			httpAddr = m[1]
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if httpAddr == "" || coordAddr == "" {
		t.Fatalf("daemon never logged its addresses (http=%q coord=%q, scan err %v)", httpAddr, coordAddr, sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return httpAddr, coordAddr
}

func waitFleet(t *testing.T, baseURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cluster struct {
			Workers int `json:"workers"`
		}
		resp, err := http.Get(baseURL + "/cluster")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&cluster)
			resp.Body.Close()
		}
		if err == nil && cluster.Workers == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (last err %v, have %d)", n, err, cluster.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func postLayerHTTP(t *testing.T, baseURL, query, body string) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/layer?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /layer?%s: status %d: %s", query, resp.StatusCode, data)
	}
	return data
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}
