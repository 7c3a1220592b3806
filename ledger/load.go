package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop concurrency: one process drives the load
// with this many clients, each on its own keep-alive connection, each
// sending its next request only once the previous answer is in — layering
// callers wait for their answer. It matches the two CPUs the benchmark is
// sized for.
const clients = 2

// maxFailureNotes bounds the failure messages a run keeps for its report.
const maxFailureNotes = 5

// postLayer sends r as POST /layer, tagged with id as X-Request-ID when
// id is set, and returns the answer's body and status.
func postLayer(ctx context.Context, c *http.Client, base string, r request, id string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/layer?"+r.query, bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// loadClients returns the clients of one run, one connection each.
func loadClients() []*http.Client {
	cs := make([]*http.Client, clients)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

// tally counts the requests a run sent and the ones that failed, with
// the first few failure messages.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.notes) < maxFailureNotes {
			t.notes = append(t.notes, err.Error())
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < maxFailureNotes {
			t.notes = append(t.notes, n)
		}
	}
}

// phase is what one closed-loop phase measured.
type phase struct {
	tally
	// latMS holds the client-side latency of every OK answer.
	latMS []float64
	// byID maps the X-Request-ID of every OK answer to its latency, so
	// daemon traces can be matched to what the client saw.
	byID map[string]float64
	// windows splits the phase into equal windows: the latencies of the
	// OK answers completed in each (answers after the last window end
	// are left out), and the tree's CPU time at every window boundary.
	window  time.Duration
	windows [][]float64
	cpuMS   []float64
}

// windowStats is the median over a phase's windows of its throughput,
// latency percentiles and CPU time per answer. A window the shared
// machine stalled in moves the median less than it moves a mean.
func (p phase) windowStats() (rps, p50, p90, cpuPerReq float64) {
	var r, l50, l90, cpu []float64
	for k, lat := range p.windows {
		r = append(r, float64(len(lat))/p.window.Seconds())
		if len(lat) == 0 {
			continue
		}
		l90 = append(l90, percentile(lat, 0.90))
		l50 = append(l50, percentile(lat, 0.50))
		if len(p.cpuMS) == len(p.windows)+1 {
			cpu = append(cpu, (p.cpuMS[k+1]-p.cpuMS[k])/float64(len(lat)))
		}
	}
	return percentile(r, 0.5), percentile(l50, 0.5), percentile(l90, 0.5), percentile(cpu, 0.5)
}

// runPhase drives the closed loop for d: every client takes the next
// request index from seq, sends it, checks the answer and records its
// latency, until d has passed. The phase is split into n windows; when
// cpu is set it is read at every window boundary.
func runPhase(ctx context.Context, cs []*http.Client, base string, w *workload, seq *atomic.Int64, d time.Duration, n int, cpu func() (float64, error), check func(request, []byte) error) (phase, error) {
	type done struct {
		at time.Duration
		ms float64
		id string
	}
	start := time.Now()
	parts := make([][]done, len(cs))
	tallies := make([]tally, len(cs))
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(seq.Add(1) - 1)
				r := w.next(i)
				id := fmt.Sprintf("q%d", i)
				t0 := time.Now()
				body, status, err := postLayer(ctx, c, base, r, id)
				at := time.Since(start)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("request %d: status %d: %s", i, status, bytes.TrimSpace(body))
				}
				if err == nil {
					if err = check(r, body); err != nil {
						err = fmt.Errorf("request %d: %w", i, err)
					}
				}
				tallies[k].record(err)
				if err == nil {
					parts[k] = append(parts[k], done{at, ms, id})
				}
			}
		}()
	}
	p := phase{byID: make(map[string]float64), window: d / time.Duration(n), windows: make([][]float64, n)}
	var cpuErr error
	if cpu != nil {
		// Sample at every boundary on the phase's own clock; a late read
		// shifts a boundary by the delay, not the windows after it.
		for k := 0; k <= n && cpuErr == nil; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * p.window)))
			var ms float64
			ms, cpuErr = cpu()
			p.cpuMS = append(p.cpuMS, ms)
		}
	}
	wg.Wait()
	for k := range cs {
		p.add(tallies[k])
		for _, c := range parts[k] {
			p.latMS = append(p.latMS, c.ms)
			p.byID[c.id] = c.ms
			if win := int(c.at / p.window); win < n {
				p.windows[win] = append(p.windows[win], c.ms)
			}
		}
	}
	return p, cpuErr
}
