package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"time"

	"antlayer/internal/obs"
	"antlayer/internal/server"
)

const (
	// setupRuns is how many times an untraced run spawns its tree to time
	// set-up; it reports the median and measures on the last tree.
	setupRuns = 5
	// traceRing is the daemon's trace ring in a traced run: the timed
	// phase's last traceRing requests are the traced sample.
	traceRing = 2048
)

// config is what every run of one invocation shares.
type config struct {
	bin     string // the daglayer binary
	seed    int64
	seconds float64
}

// counters is the slice of /metrics a traced run folds in as deltas.
type counters struct {
	LayerRequests  int64 `json:"layer_requests"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	WarmHits       int64 `json:"warm_hits"`
	WarmMisses     int64 `json:"warm_misses"`
	WarmToursSaved int64 `json:"warm_tours_saved"`
	ToursRun       int64 `json:"tours_run"`
}

func (c counters) minus(o counters) counters {
	return counters{
		LayerRequests:  c.LayerRequests - o.LayerRequests,
		CacheHits:      c.CacheHits - o.CacheHits,
		CacheMisses:    c.CacheMisses - o.CacheMisses,
		WarmHits:       c.WarmHits - o.WarmHits,
		WarmMisses:     c.WarmMisses - o.WarmMisses,
		WarmToursSaved: c.WarmToursSaved - o.WarmToursSaved,
		ToursRun:       c.ToursRun - o.ToursRun,
	}
}

// drive is everything one pass of a workload against a live tree
// measured.
type drive struct {
	tally
	setupS  []float64
	quality float64 // mean height + width over the verify answers
	timed   phase
	rssMiB  float64
	// stealPct is the share of the machine's CPU time the hypervisor
	// stole during the timed phase.
	stealPct float64
	// Traced runs only: the timed phase's traces and /metrics deltas.
	traces []obs.TraceView
	delta  counters
}

// driveWorkload runs one workload end to end: compute the verify pass's
// reference answers in-process, spawn the tree (setups times, keeping
// the last), run the verify pass, warm up, and time the closed loop for
// dur.
func driveWorkload(ctx context.Context, bin string, w *workload, dur time.Duration, traced bool, setups int) (*drive, error) {
	ref, err := referenceBodies(w)
	if err != nil {
		return nil, fmt.Errorf("%s: in-process reference: %w", w.name, err)
	}
	var t *tree
	dr := &drive{}
	for k := 0; k < setups; k++ {
		if t != nil {
			t.stop()
		}
		var d time.Duration
		if t, d, err = startTree(ctx, bin, w, traced); err != nil {
			return nil, fmt.Errorf("%s: start: %w", w.name, err)
		}
		dr.setupS = append(dr.setupS, d.Seconds())
	}
	defer t.stop()
	cs := loadClients()
	defer func() {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}()

	// Verify pass: sequential, so the daemon's state evolves exactly as
	// the in-process reference's did.
	first := make([][]byte, verifyLen)
	for i := 0; i < verifyLen; i++ {
		r := w.next(i)
		body, status, err := postLayer(ctx, cs[0], t.base, r, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var a answer
		if err == nil {
			a, err = checkAnswer(r, body)
		}
		if err == nil && !bytes.Equal(body, ref[i]) {
			err = fmt.Errorf("body differs from the in-process answer")
		}
		if err != nil {
			err = fmt.Errorf("verify request %d: %w", i, err)
		} else {
			dr.quality += (float64(a.Metrics.Height) + a.Metrics.WidthIncl) / verifyLen
			first[i] = body
		}
		dr.record(err)
	}

	check := func(r request, body []byte) error {
		_, err := checkAnswer(r, body)
		return err
	}
	if !w.computes {
		// Every timed request repeats a verified one: its answer must be
		// the very bytes the daemon computed the first time.
		check = func(r request, body []byte) error {
			if !bytes.Equal(body, first[r.key]) {
				return fmt.Errorf("cache hit differs from the first answer for its key")
			}
			return nil
		}
	}
	var seq atomic.Int64
	seq.Store(verifyLen)
	warm, err := runPhase(ctx, cs, t.base, w, &seq, min(dur/4, 3*time.Second), 1, nil, check)
	if err != nil {
		return nil, err
	}
	dr.add(warm.tally)

	var before counters
	if traced {
		if err := t.get("/metrics", &before); err != nil {
			return nil, err
		}
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	// One-second windows (or one window for a run shorter than 2 s).
	windows := max(1, int(dur.Round(time.Second)/time.Second))
	if dr.timed, err = runPhase(ctx, cs, t.base, w, &seq, dur, windows, t.cpuMillis, check); err != nil {
		return nil, err
	}
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	dr.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	dr.add(dr.timed.tally)
	if dr.rssMiB, err = t.peakRSSMiB(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if !traced {
		return dr, nil
	}
	var after counters
	if err := t.get("/metrics", &after); err != nil {
		return nil, err
	}
	dr.delta = after.minus(before)
	var list struct {
		Traces []obs.TraceView `json:"traces"`
	}
	if err := t.get("/traces?limit=0", &list); err != nil {
		return nil, err
	}
	for _, tv := range list.Traces {
		if _, ok := dr.timed.byID[tv.ID]; ok && tv.Finished {
			dr.traces = append(dr.traces, tv)
		}
	}
	return dr, nil
}

// referenceBodies answers the verify pass on an in-process daemon with
// the spawned daemon's configuration, sequentially and from a fresh
// state, so every body is the one the determinism contract promises.
// A distributed request is answered by the in-process island run it
// must match byte for byte.
func referenceBodies(w *workload) ([][]byte, error) {
	srv := server.New(server.Config{})
	defer srv.Close()
	out := make([][]byte, verifyLen)
	for i := range out {
		r := w.next(i)
		q, err := url.ParseQuery(r.query)
		if err != nil {
			return nil, err
		}
		q.Del("distributed")
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/layer?"+q.Encode(), bytes.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("request %d: status %d: %s", i, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}
