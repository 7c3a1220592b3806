// Package shard spans the island archipelago (internal/island) across
// processes: a coordinator owns the ring and the epoch barrier, and
// worker processes own the colonies — one island.Engine per worker, each
// hosting a contiguous slice of the ring.
//
// The wire protocol is length-prefixed JSON over TCP: every frame is a
// 4-byte big-endian length followed by one JSON message. A worker dials
// the coordinator, introduces itself (hello/welcome; the welcome names
// the heartbeat cadence the coordinator's liveness timeout expects) and
// then sits idle, beating at that cadence, until the coordinator hands
// it a run: the graph (a dag.Snapshot, which preserves adjacency-list
// order — part of the determinism contract), the island parameters and
// the worker's slice of the ring. From there the exchange is
// epoch-numbered and ring-ordered:
//
//	worker  → epoch   {seq, epoch, elites}     one elite per local island
//	coord   → migrate {seq, elites, epoch}     ring predecessors, positional
//	          finish  {seq}                    every island is done
//	          error   {seq, error}             run aborted
//	worker  → report  {seq, reports}           after finish: per-island results
//
// The coordinator waits for every worker's epoch frame before answering
// any of them — that barrier, plus the fixed ring order of the exchange,
// is exactly the in-process WaitGroup barrier lifted to the network, so
// the distributed archipelago returns byte-identical layerings at any
// worker-process count and partition (see DESIGN.md §10). Every run
// carries a sequence number so frames from an aborted run can never be
// mistaken for the current one.
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"antlayer/internal/dag"
	"antlayer/internal/island"
	"antlayer/internal/obs"
)

// maxFrame bounds a single frame so a corrupt or hostile peer cannot make
// the receiver allocate unboundedly. Graph snapshots of the corpus sizes
// this repository targets are well under a megabyte; 64 MiB leaves room
// for very large graphs.
const maxFrame = 64 << 20

// maxHelloFrame bounds the handshake's hello frame, read before the
// shared secret is checked: a worker name and a secret fit in a few
// hundred bytes, so an unauthenticated peer cannot make the coordinator
// allocate more than this.
const maxHelloFrame = 4 << 10

// Frame types.
const (
	msgHello     = "hello"
	msgWelcome   = "welcome"
	msgRun       = "run"
	msgEpoch     = "epoch"
	msgMigrate   = "migrate"
	msgFinish    = "finish"
	msgReport    = "report"
	msgError     = "error"
	msgHeartbeat = "heartbeat"
)

// message is the one frame shape of the protocol; Type selects which
// fields are meaningful.
type message struct {
	Type string `json:"type"`
	// Seq identifies the run a frame belongs to; set on every frame after
	// the handshake. Frames with a stale Seq are discarded, so an aborted
	// run's stragglers cannot corrupt the next run's barrier.
	Seq uint64 `json:"seq,omitempty"`

	// hello (worker → coordinator) / welcome (coordinator → worker).
	// Auth carries the shared cluster secret when the coordinator
	// requires one; compared in constant time on the coordinator.
	// HeartbeatMs is the interval the worker must send heartbeat frames
	// at, a fifth of the coordinator's liveness timeout; 0 means the
	// coordinator expels nobody for silence and wants no heartbeats.
	Name        string `json:"name,omitempty"`
	Auth        string `json:"auth,omitempty"`
	WorkerID    int    `json:"worker_id,omitempty"`
	HeartbeatMs int64  `json:"heartbeat_ms,omitempty"`

	// run (coordinator → worker). TraceID propagates the request trace
	// so the worker's span timings can be attributed to it; empty for
	// untraced runs, and old workers simply ignore it.
	Graph   *dag.Snapshot  `json:"graph,omitempty"`
	Params  *island.Params `json:"params,omitempty"`
	Islands []int          `json:"islands,omitempty"`
	TraceID string         `json:"trace_id,omitempty"`

	// epoch (worker → coordinator) / migrate (coordinator → worker).
	Epoch  int            `json:"epoch,omitempty"`
	Elites []island.Elite `json:"elites,omitempty"`

	// report (worker → coordinator). Spans are the worker's per-epoch
	// compute timings, offsets relative to the worker's run start; the
	// coordinator rebases them onto the request trace at the run-frame
	// dispatch offset (DESIGN.md §14).
	Reports []island.Report `json:"reports,omitempty"`
	Spans   []obs.Span      `json:"spans,omitempty"`

	// error (either direction).
	Error string `json:"error,omitempty"`
}

// writeFrame serialises m as one length-prefixed JSON frame.
func writeFrame(w io.Writer, m *message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: marshal %s frame: %w", m.Type, err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("shard: %s frame of %d bytes exceeds the %d-byte limit", m.Type, len(body), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("shard: write frame header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("shard: write frame body: %w", err)
	}
	return nil
}

// readFrame reads one length-prefixed JSON frame of at most limit bytes;
// a larger length prefix is refused before anything is allocated, and
// the body buffer grows only with the bytes that actually arrive, so a
// peer announcing a large frame it never sends costs what it sent.
func readFrame(r io.Reader, m *message, limit uint32) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF on a clean close; callers label the context
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return fmt.Errorf("shard: incoming frame of %d bytes exceeds the %d-byte limit", n, limit)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		return fmt.Errorf("shard: read frame body: %w", err)
	}
	*m = message{}
	if err := json.Unmarshal(body.Bytes(), m); err != nil {
		return fmt.Errorf("shard: decode frame: %w", err)
	}
	return nil
}
