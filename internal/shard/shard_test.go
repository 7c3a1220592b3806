package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
	"antlayer/internal/island"
)

func testGraph(t testing.TB, n int, seed int64) *dag.Graph {
	t.Helper()
	g, err := graphgen.Generate(graphgen.DefaultConfig(n), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fingerprint mirrors the island package's test fingerprint: everything
// observable about a result, floats by exact bits.
func fingerprint(res *island.Result) string {
	s := fmt.Sprintf("obj=%x best=%d tour=%d migrations=%d layers=%v",
		math.Float64bits(res.Objective), res.BestIsland, res.BestTour,
		res.Migrations, res.Layering.Layers())
	for _, st := range res.PerIsland {
		s += fmt.Sprintf(";i%d seed=%d obj=%x tours=%d", st.Island, st.Seed,
			math.Float64bits(st.Objective), st.ToursRun)
	}
	return s
}

// cluster starts a coordinator plus workers on loopback and waits for
// registration. The returned cancel tears everything down.
func cluster(t *testing.T, workers int) (*Coordinator, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCoordinator(CoordinatorConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ctx, ln) }()
	addr := ln.Addr().String()
	for i := 0; i < workers; i++ {
		w := NewWorker(WorkerConfig{Name: fmt.Sprintf("w%d", i)})
		// Reconnect loop mirroring `daglayer worker -retry`: an expelled
		// worker redials and rejoins the fleet.
		go func() {
			for ctx.Err() == nil {
				_ = w.Run(ctx, addr)
				select {
				case <-ctx.Done():
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}
	waitWorkers(t, c, workers)
	return c, cancel
}

func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Workers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (have %d)", n, c.Workers())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDistributedMatchesInProcess is the headline invariant: for the same
// (graph, Params) the distributed archipelago returns a result
// bitwise-identical to the in-process island run, at any worker count
// and partition — here the full single-shard run, an uneven 2-way split,
// a 3-way split, and one-island-per-process.
func TestDistributedMatchesInProcess(t *testing.T) {
	g := testGraph(t, 60, 23)
	p := island.DefaultParams()
	p.Colony.Tours = 6
	p.Colony.Seed = 77
	p.Islands = 5
	p.MigrationInterval = 2
	p.Colony.StopAfterStagnantTours = 3 // stagger island finishes

	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5} {
		c, cancel := cluster(t, workers)
		res, err := c.RunIsland(context.Background(), g, p)
		if err != nil {
			cancel()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fingerprint(res); got != fingerprint(want) {
			t.Errorf("workers=%d diverged:\n got %s\nwant %s", workers, got, fingerprint(want))
		}
		m := c.Metrics()
		if m.Runs != 1 || m.RunErrors != 0 {
			t.Errorf("workers=%d: runs=%d errors=%d", workers, m.Runs, m.RunErrors)
		}
		if m.Migrations != int64(want.Migrations) {
			t.Errorf("workers=%d: coordinator counted %d migrations, result says %d", workers, m.Migrations, want.Migrations)
		}
		if len(m.PerWorker) != workers {
			t.Errorf("workers=%d: %d per-worker metrics", workers, len(m.PerWorker))
		} else if m.PerWorker[0].Epochs == 0 || m.PerWorker[0].MeanEpochMs < 0 {
			t.Errorf("workers=%d: empty shard latency metrics: %+v", workers, m.PerWorker[0])
		}
		cancel()
	}
}

// TestDistributedReusesFleet runs twice on one fleet: the second run must
// not be confused by the first one's state (seq discipline, fresh
// engines per run).
func TestDistributedReusesFleet(t *testing.T) {
	c, cancel := cluster(t, 2)
	defer cancel()
	g := testGraph(t, 40, 3)
	p := island.DefaultParams()
	p.Colony.Tours = 4
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		res, err := c.RunIsland(context.Background(), g, p)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if fingerprint(res) != fingerprint(want) {
			t.Errorf("run %d diverged", run)
		}
	}
	if m := c.Metrics(); m.Runs != 2 {
		t.Errorf("runs = %d, want 2", m.Runs)
	}
}

func TestRunIslandNoWorkers(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	g := testGraph(t, 10, 1)
	_, err := c.RunIsland(context.Background(), g, island.DefaultParams())
	if err != ErrNoWorkers {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestRunIslandValidatesParams(t *testing.T) {
	c, cancel := cluster(t, 1)
	defer cancel()
	p := island.DefaultParams()
	p.Islands = 0
	if _, err := c.RunIsland(context.Background(), testGraph(t, 10, 1), p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestWorkerFailureRetriesOnSurvivors kills one worker's connection
// while the fleet is idle; the reader goroutine must notice the death
// immediately (no run required), expel the worker, and the next run must
// succeed on the survivor, byte-identically and without a failed attempt.
func TestWorkerFailureRetriesOnSurvivors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewCoordinator(CoordinatorConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ctx, ln) }()
	addr := ln.Addr().String()

	dying, killWorker := context.WithCancel(ctx)
	go func() { _ = NewWorker(WorkerConfig{Name: "doomed"}).Run(dying, addr) }()
	waitWorkers(t, c, 1)
	go func() { _ = NewWorker(WorkerConfig{Name: "survivor"}).Run(ctx, addr) }()
	waitWorkers(t, c, 2)
	killWorker()
	// The reader goroutine sees the closed connection and expels the dead
	// worker without waiting for a run to trip over it.
	waitWorkers(t, c, 1)

	g := testGraph(t, 40, 7)
	p := island.DefaultParams()
	p.Colony.Tours = 4
	want, err := island.Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunIsland(context.Background(), g, p)
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if fingerprint(res) != fingerprint(want) {
		t.Error("post-failure run diverged from in-process result")
	}
	if c.Workers() != 1 {
		t.Errorf("fleet size = %d after expulsion, want 1", c.Workers())
	}
	if m := c.Metrics(); m.RunErrors != 0 {
		t.Errorf("run_errors = %d; the idle death should cost no run attempt", m.RunErrors)
	}
}

// TestRunIslandHonoursContext cancels the request mid-run; the run must
// fail promptly and the fleet must survive for the next request.
func TestRunIslandHonoursContext(t *testing.T) {
	c, cancel := cluster(t, 2)
	defer cancel()
	g := testGraph(t, 80, 13)
	p := island.DefaultParams()
	p.Colony.Tours = 100000
	p.Colony.Ants = 8
	ctx, cancelRun := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelRun()
	if _, err := c.RunIsland(ctx, g, p); err == nil {
		t.Fatal("cancelled distributed run succeeded")
	}
	// Fleet must still work.
	waitWorkers(t, c, 2)
	p.Colony.Tours = 2
	if _, err := c.RunIsland(context.Background(), g, p); err != nil {
		t.Fatalf("fleet unusable after cancelled run: %v", err)
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		k, w int
		want [][]int
	}{
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{5, 2, [][]int{{0, 1, 2}, {3, 4}}},
		{5, 3, [][]int{{0, 1}, {2, 3}, {4}}},
		{3, 3, [][]int{{0}, {1}, {2}}},
		{1, 1, [][]int{{0}}},
	}
	for _, c := range cases {
		if got := partition(c.k, c.w); !reflect.DeepEqual(got, c.want) {
			t.Errorf("partition(%d,%d) = %v, want %v", c.k, c.w, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sent := message{Type: msgEpoch, Seq: 9, Epoch: 3, Elites: []island.Elite{{Island: 1, Assign: []int{1, 2}, Objective: 0.25}}}
	go func() { _ = writeFrame(a, &sent) }()
	var got message
	if err := readFrame(b, &got, maxFrame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("round trip: %+v != %+v", got, sent)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		_, _ = a.Write(hdr)
	}()
	var m message
	if err := readFrame(b, &m, maxFrame); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestReadFrameAllocatesWhatArrives: a length prefix within the limit is
// not an allocation order — an authenticated peer announcing 60 MiB and
// sending 1 KiB before hanging up costs about that kilobyte.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var in bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 60<<20)
	in.Write(hdr[:])
	in.Write(bytes.Repeat([]byte{'{'}, 1<<10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m message
	err := readFrame(&in, &m, maxFrame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading 1 KiB of a 60 MiB frame allocated %d bytes, want < 1 MiB", alloc)
	}
}

// FuzzReadFrame: whatever the bytes, the frame decoder returns an error
// or a message, never panics, and a message it accepts comes back
// unchanged through writeFrame/readFrame — the wire bytes of the
// re-decoded frame equal those of the first encoding. The seeds cover
// each frame family and the rejection paths; `go test -fuzz=FuzzReadFrame`
// explores from there.
func FuzzReadFrame(f *testing.F) {
	encode := func(m *message) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	snap := testGraph(f, 6, 1).Snapshot()
	p := island.DefaultParams()
	hello := encode(&message{Type: msgHello, Name: "w0", Auth: "hunter2"})
	f.Add(hello)
	f.Add(encode(&message{Type: msgRun, Seq: 1, Graph: &snap, Params: &p, Islands: []int{0, 1}, TraceID: "req-1"}))
	f.Add(encode(&message{Type: msgEpoch, Seq: 1, Epoch: 2, Elites: []island.Elite{{Island: 1, Assign: []int{2, 1, 1}, Objective: 0.2, Done: true}}}))
	f.Add([]byte{0x04, 0x00, 0x00, 0x01})              // length prefix one byte over the limit
	f.Add(hello[:len(hello)-3])                        // body cut short
	f.Add([]byte{0, 0, 0, 5, 'n', 'o', 'p', 'e', '!'}) // body that is not JSON
	f.Fuzz(func(t *testing.T, data []byte) {
		var m message
		if readFrame(bytes.NewReader(data), &m, maxFrame) != nil {
			return
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, &m); err != nil {
			t.Fatalf("accepted frame does not encode: %v", err)
		}
		sent := bytes.Clone(wire.Bytes())
		var back message
		if err := readFrame(&wire, &back, maxFrame); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		var again bytes.Buffer
		if err := writeFrame(&again, &back); err != nil {
			t.Fatalf("round-tripped frame does not encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), sent) {
			t.Fatalf("frame changed on a round trip:\n sent %s\n back %s", sent[4:], again.Bytes()[4:])
		}
	})
}

// TestHandshakeRejectsSilentConnection: a connection that never says
// hello is dropped after the handshake deadline, not parked forever.
// (Uses a short-lived coordinator so the 10s production deadline is not
// on the test's critical path — the test only checks the connection is
// not registered.)
func TestHandshakeRejectsNonHello(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewCoordinator(CoordinatorConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve(ctx, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &message{Type: msgEpoch}); err != nil {
		t.Fatal(err)
	}
	// The coordinator must close the connection without registering it.
	var m message
	if err := readFrame(conn, &m, maxFrame); err == nil {
		t.Fatalf("got %s frame, want closed connection", m.Type)
	}
	if c.Workers() != 0 {
		t.Errorf("non-hello connection registered")
	}
}

// TestHandshakeRefusesOversizeHello: the hello frame is read before the
// secret check, so its length prefix is capped — a peer announcing a
// 64 MiB hello is disconnected at once instead of pinning that much
// memory for the whole handshake timeout.
func TestHandshakeRefusesOversizeHello(t *testing.T) {
	_, addr, _, cancel := startCoordinator(t, CoordinatorConfig{Secret: "hunter2"})
	defer cancel()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	var buf [1]byte
	_, err = conn.Read(buf[:])
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 1s after an oversize hello header")
	}
	if err == nil {
		t.Fatal("coordinator answered an oversize hello instead of closing")
	}
}
