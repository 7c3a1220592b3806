package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultLink is a frame-aware proxy between workers and a coordinator:
// a worker dials the link's address instead of the coordinator's, and
// the link makes it misbehave on the wire — slow at every barrier, or
// dead at an exact point of the epoch protocol — while the worker runs
// the production code. The zero value forwards every frame untouched.
type faultLink struct {
	// holdEpoch delays each epoch frame a worker sends by this long. The
	// frames behind it, heartbeats, pass at once, as they do past a slow
	// computation, so a slow worker stays distinguishable from a dead one.
	holdEpoch time.Duration
	// dieAtEpoch, when positive, drops the connection instead of
	// forwarding the worker's epoch frame of that epoch: death mid-epoch,
	// while the coordinator waits at the barrier.
	dieAtEpoch int
	// dieAfterMigrate, when positive, drops the connection right after
	// forwarding the coordinator's migrate frame of that epoch: death
	// after the coordinator committed the exchange.
	dieAfterMigrate int

	// died latches the die faults: they fire on one connection per link,
	// so a worker that redials through the link rejoins healthy.
	died atomic.Bool
}

// frameHead is the part of a frame the link reads to decide its fate;
// the frame itself is forwarded as the bytes that arrived.
type frameHead struct {
	Type  string `json:"type"`
	Epoch int    `json:"epoch"`
}

// readRawFrame reads one length-prefixed frame whole, prefix included.
func readRawFrame(r io.Reader) ([]byte, frameHead, error) {
	var head frameHead
	raw := make([]byte, 4)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, head, err
	}
	n := binary.BigEndian.Uint32(raw)
	if n > maxFrame {
		return nil, head, fmt.Errorf("frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	raw = append(raw, make([]byte, n)...)
	if _, err := io.ReadFull(r, raw[4:]); err != nil {
		return nil, head, err
	}
	return raw, head, json.Unmarshal(raw[4:], &head)
}

// start listens on loopback in front of the coordinator at upstream and
// returns the address workers dial instead. Everything closes with ctx.
func (l *faultLink) start(t *testing.T, ctx context.Context, upstream string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	context.AfterFunc(ctx, func() { ln.Close() })
	go func() {
		for {
			worker, err := ln.Accept()
			if err != nil {
				return
			}
			coord, err := net.Dial("tcp", upstream)
			if err != nil {
				worker.Close()
				continue
			}
			drop := func() { worker.Close(); coord.Close() }
			context.AfterFunc(ctx, drop)
			go l.toCoordinator(worker, coord, drop)
			go l.toWorker(coord, worker, drop)
		}
	}()
	return ln.Addr().String()
}

// toCoordinator pumps the worker's frames upstream, holding epoch frames
// or dying at one as the link says.
func (l *faultLink) toCoordinator(worker, coord net.Conn, drop func()) {
	defer drop()
	var mu sync.Mutex // held frames and passing ones write concurrently
	send := func(raw []byte) error {
		mu.Lock()
		defer mu.Unlock()
		_, err := coord.Write(raw)
		return err
	}
	for {
		raw, head, err := readRawFrame(worker)
		if err != nil {
			return
		}
		if head.Type == msgEpoch && head.Epoch == l.dieAtEpoch && l.died.CompareAndSwap(false, true) {
			return
		}
		if head.Type == msgEpoch && l.holdEpoch > 0 {
			time.AfterFunc(l.holdEpoch, func() { _ = send(raw) })
			continue
		}
		if send(raw) != nil {
			return
		}
	}
}

// toWorker pumps the coordinator's frames to the worker, dying right
// after a migrate frame as the link says.
func (l *faultLink) toWorker(coord, worker net.Conn, drop func()) {
	defer drop()
	for {
		raw, head, err := readRawFrame(coord)
		if err != nil {
			return
		}
		if _, err := worker.Write(raw); err != nil {
			return
		}
		if head.Type == msgMigrate && head.Epoch == l.dieAfterMigrate && l.died.CompareAndSwap(false, true) {
			return
		}
	}
}
