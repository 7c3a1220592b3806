package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antlayer/internal/dag"
	"antlayer/internal/graphgen"
)

// loadDOT is the graph every generated request posts: small enough that a
// single layering answers in milliseconds, large enough that the colony
// actually walks. Matching bodies + differing seed query parameters give
// cache-cold traffic; a pinned seed gives cache-hot traffic.
const loadDOT = `digraph load {
  a -> b; a -> c; a -> d;
  b -> e; b -> f; c -> f; c -> g; d -> g; d -> h;
  e -> i; f -> i; f -> j; g -> j; g -> k; h -> k;
  i -> l; j -> l; j -> m; k -> m;
  l -> n; m -> n;
}
`

// Mix weights the traffic classes the generator draws from. Weights are
// relative; a zero weight disables the class.
type Mix struct {
	// Hot posts /layer with a pinned seed: after the first answer, a
	// cache hit every time (when the daemon's cache is enabled).
	Hot int `json:"hot"`
	// Cold posts /layer with a never-repeated seed: always a fresh
	// computation.
	Cold int `json:"cold"`
	// Distributed posts algo=island&distributed=true — sharded over the
	// worker fleet on a coordinator daemon.
	Distributed int `json:"distributed"`
	// Jobs exercises the async path: POST /jobs, then poll to a terminal
	// state (a fraction of submissions are cancelled instead).
	Jobs int `json:"jobs"`
	// Events exercises the push path: POST /jobs with a topic label, then
	// follow the job over its SSE stream (GET /jobs/{id}/events) to a
	// terminal state instead of polling.
	Events int `json:"events"`
	// Oversize posts a body beyond the daemon's -max-body, expecting 413.
	Oversize int `json:"oversize"`
	// Edits walks a deterministic edit chain: each request posts the next
	// graph of a precomputed mutation sequence (cycling), so consecutive
	// requests share most vertex names and the daemon's warm-start probe
	// keeps finding a usable pheromone state — the repeat-with-edits
	// traffic shape the warm serving path exists for.
	Edits int `json:"edits"`
}

func (m Mix) total() int {
	return m.Hot + m.Cold + m.Distributed + m.Jobs + m.Events + m.Oversize + m.Edits
}

// pick draws a traffic class from the mix: "hot", "cold", "dist",
// "jobs", "events", "over" or "edits".
func (m Mix) pick(rng *rand.Rand) string {
	n := m.total()
	if n <= 0 {
		return "hot"
	}
	r := rng.Intn(n)
	switch {
	case r < m.Hot:
		return "hot"
	case r < m.Hot+m.Cold:
		return "cold"
	case r < m.Hot+m.Cold+m.Distributed:
		return "dist"
	case r < m.Hot+m.Cold+m.Distributed+m.Jobs:
		return "jobs"
	case r < m.Hot+m.Cold+m.Distributed+m.Jobs+m.Events:
		return "events"
	case r < m.Hot+m.Cold+m.Distributed+m.Jobs+m.Events+m.Oversize:
		return "over"
	default:
		return "edits"
	}
}

// SampleSet accumulates one phase's request outcomes: latencies (ms) and
// an outcome-class histogram. Safe for concurrent recording.
type SampleSet struct {
	mu        sync.Mutex
	latencies []float64
	classes   map[string]int64
	shed      int64
	slowMS    float64
	slowTrace string
}

func newSampleSet() *SampleSet {
	return &SampleSet{classes: make(map[string]int64)}
}

func (s *SampleSet) record(ms float64, class, traceID string) {
	s.mu.Lock()
	s.latencies = append(s.latencies, ms)
	s.classes[class]++
	if traceID != "" && ms > s.slowMS {
		s.slowMS, s.slowTrace = ms, traceID
	}
	s.mu.Unlock()
}

// SlowestTrace returns the trace ID of the slowest traced request this
// set saw and its latency; empty when no sampled request carried one.
func (s *SampleSet) SlowestTrace() (id string, ms float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slowTrace, s.slowMS
}

func (s *SampleSet) recordShed() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

// snapshot returns a copy of the accumulated samples.
func (s *SampleSet) snapshot() (lats []float64, classes map[string]int64, shed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lats = append([]float64(nil), s.latencies...)
	classes = make(map[string]int64, len(s.classes))
	for k, v := range s.classes {
		classes[k] = v
	}
	return lats, classes, s.shed
}

// Generator drives a daglayer daemon at a target rate with a seeded
// traffic mix. One Generator serves a whole scenario; each phase calls
// Run with its own duration/rate/mix, and the cold-seed counter persists
// across phases so no cold request ever repeats a cache key.
type Generator struct {
	BaseURL string
	Seed    int64
	// Concurrency caps in-flight requests (default 16). Ticks arriving
	// with every slot busy are shed (counted, not errored).
	Concurrency int
	Client      *http.Client
	// DistributedJobs makes the Jobs and Events traffic submit
	// distributed island jobs, which a coordinator daemon runs on its
	// worker fleet.
	DistributedJobs bool

	coldSeq atomic.Int64

	editOnce  sync.Once
	editChain []string
	editSeq   atomic.Int64
}

// NewGenerator builds a generator with a per-request HTTP client timeout
// matched to chaos use: long enough for a computation, short enough that
// a hung daemon turns into "timeout" samples instead of a stuck phase.
func NewGenerator(baseURL string, seed int64) *Generator {
	return &Generator{
		BaseURL:     baseURL,
		Seed:        seed,
		Concurrency: 16,
		Client:      &http.Client{Timeout: 10 * time.Second},
	}
}

// Run drives the daemon for d at rps with the given mix, returning the
// phase's samples. It blocks until the duration elapses and all in-flight
// requests resolve (or ctx dies).
func (g *Generator) Run(ctx context.Context, d time.Duration, rps float64, mix Mix) *SampleSet {
	s := newSampleSet()
	if rps <= 0 {
		rps = 20
	}
	conc := g.Concurrency
	if conc <= 0 {
		conc = 16
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Workers pull ticks from a buffered channel; a tick that finds the
	// buffer full (every worker busy, buffer drained) is shed.
	ticks := make(chan int64, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		// Each worker owns a deterministic rng: the scenario seed and the
		// worker index, so a scenario replays the same request sequence
		// per worker regardless of scheduling.
		rng := rand.New(rand.NewSource(g.Seed + int64(i)*7919))
		go func() {
			defer wg.Done()
			for range ticks {
				g.one(ctx, rng, mix, s)
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	deadline := time.NewTimer(d)
	defer ticker.Stop()
	defer deadline.Stop()
	var n int64
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-ticker.C:
			n++
			select {
			case ticks <- n:
			default:
				s.recordShed()
			}
		}
	}
	close(ticks)
	wg.Wait()
	return s
}

// one issues a single request drawn from the mix and records its outcome.
func (g *Generator) one(ctx context.Context, rng *rand.Rand, mix Mix, s *SampleSet) {
	start := time.Now()
	var class, trace string
	switch mix.pick(rng) {
	case "hot":
		class, trace = g.postLayer(ctx, "algo=aco&tours=2&seed=1", loadDOT)
	case "cold":
		class, trace = g.postLayer(ctx, fmt.Sprintf("algo=aco&tours=2&seed=%d", 1000+g.coldSeq.Add(1)), loadDOT)
	case "dist":
		// Mixed K: islands 2..4, so on a 4-worker fleet some runs lease a
		// strict subset and the scheduler can overlap them. The draw comes
		// from the worker's deterministic rng, so a scenario replays the
		// same K sequence per worker.
		class, trace = g.postLayer(ctx, fmt.Sprintf("algo=island&islands=%d&tours=2&migration-interval=1&distributed=true&seed=%d", 2+rng.Intn(3), 1000+g.coldSeq.Add(1)), loadDOT)
	case "jobs":
		class = g.oneJob(ctx, rng)
	case "events":
		class = g.oneEventJob(ctx)
	case "over":
		class = g.postOversize(ctx)
	case "edits":
		class, trace = g.postLayer(ctx, editQuery, g.nextEditBody())
	}
	s.record(float64(time.Since(start).Nanoseconds())/1e6, class, trace)
}

// editQuery pins the edit-chain request parameters: the same algorithm,
// budget and seed on every chain step, so the only thing that varies
// between requests is the graph — exactly the repeat-with-edits shape,
// and the shape a later deterministic replay can reproduce.
const editQuery = "algo=aco&tours=6&seed=9"

// EditChain returns the generator's precomputed edit-chain bodies, built
// once from the scenario seed: a sparse base and successive small
// mutations, every step renaming almost nothing — so consecutive posts
// keep clearing the daemon's warm similarity bar. Exposed so scenario
// Verify hooks can replay exact chain steps.
func (g *Generator) EditChain() []string {
	g.editOnce.Do(func() {
		graphs, names, err := graphgen.DeltaChain(g.Seed, 40, 8, 2)
		if err != nil {
			// A generation failure surfaces as malformed traffic ("4xx"
			// samples), never a panicking load generator.
			g.editChain = []string{loadDOT}
			return
		}
		g.editChain = make([]string, len(graphs))
		for i := range graphs {
			g.editChain[i] = chainDOT(graphs[i], names[i])
		}
	})
	return g.editChain
}

// nextEditBody advances the shared chain cursor (cycling), so the posted
// graph sequence walks edit by edit regardless of which worker draws the
// class.
func (g *Generator) nextEditBody() string {
	chain := g.EditChain()
	return chain[int(g.editSeq.Add(1))%len(chain)]
}

// chainDOT serializes a named graph as DOT. Every vertex gets a node
// statement (isolated vertices survive the round trip) and names are
// plain identifiers by construction ("v3", "m1"), so no quoting.
func chainDOT(gr *dag.Graph, names []string) string {
	var b strings.Builder
	b.WriteString("digraph chain {\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %s;\n", n)
	}
	for _, e := range gr.Edges() {
		fmt.Fprintf(&b, "  %s -> %s;\n", names[e.U], names[e.V])
	}
	b.WriteString("}\n")
	return b.String()
}

// classify maps a completed HTTP exchange to an outcome class.
func classify(resp *http.Response, err error) string {
	if err != nil {
		var nerr interface{ Timeout() bool }
		if errors.As(err, &nerr) && nerr.Timeout() {
			return "timeout"
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return "timeout"
		}
		return "conn"
	}
	switch {
	case resp.StatusCode < 300:
		return "ok"
	case resp.StatusCode == http.StatusTooManyRequests:
		// The 429 contract: a Retry-After header derived from queue
		// stats. A 429 without one is a distinct (never-expected) class.
		if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 1 {
			return "429_no_retry_after"
		}
		return "429"
	case resp.StatusCode == http.StatusRequestEntityTooLarge:
		return "413"
	case resp.StatusCode == http.StatusGatewayTimeout:
		return "timeout"
	case resp.StatusCode < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// postLayer posts one /layer request; alongside the outcome class it
// returns the daemon-echoed X-Request-ID so the slowest request of a
// phase can be looked up in GET /traces/{id} afterwards.
func (g *Generator) postLayer(ctx context.Context, query, body string) (class, traceID string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.BaseURL+"/layer?"+query, strings.NewReader(body))
	if err != nil {
		return "conn", ""
	}
	resp, err := g.Client.Do(req)
	class = classify(resp, err)
	if resp != nil {
		traceID = resp.Header.Get("X-Request-ID")
	}
	drain(resp)
	return class, traceID
}

// postOversize posts a body built to exceed the daemon's -max-body bound.
func (g *Generator) postOversize(ctx context.Context) string {
	body := "digraph big {\n" + strings.Repeat("  x -> y; // padding padding padding\n", 4096) + "}\n"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.BaseURL+"/layer", strings.NewReader(body))
	if err != nil {
		return "conn"
	}
	resp, err := g.Client.Do(req)
	class := classify(resp, err)
	drain(resp)
	return class
}

// jobQuery is an async job's query: a cold colony, or with
// DistributedJobs a one-island distributed run.
func (g *Generator) jobQuery() string {
	seed := 1000 + g.coldSeq.Add(1)
	if g.DistributedJobs {
		return fmt.Sprintf("algo=island&islands=1&tours=2&distributed=true&seed=%d", seed)
	}
	return fmt.Sprintf("algo=aco&tours=2&seed=%d", seed)
}

// oneJob submits an async job and follows it to a terminal state; a
// fraction of submissions are cancelled instead of polled to done.
func (g *Generator) oneJob(ctx context.Context, rng *rand.Rand) string {
	cancelIt := rng.Intn(8) == 0
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.BaseURL+"/jobs?"+g.jobQuery(), strings.NewReader(loadDOT))
	if err != nil {
		return "conn"
	}
	resp, err := g.Client.Do(req)
	if class := classify(resp, err); class != "ok" {
		drain(resp)
		return class
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || status.ID == "" {
		return "job_bad_submit"
	}
	if cancelIt {
		return g.cancelJob(ctx, status.ID)
	}
	return g.pollJob(ctx, status.ID)
}

func (g *Generator) cancelJob(ctx context.Context, id string) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, g.BaseURL+"/jobs/"+id, nil)
	if err != nil {
		return "conn"
	}
	resp, err := g.Client.Do(req)
	class := classify(resp, err)
	drain(resp)
	if class == "ok" {
		return "ok" // a cancel acknowledged is a successful exchange
	}
	return class
}

// oneEventJob submits a labeled async job and follows it over its SSE
// stream instead of polling — the push path under load. A full queue
// answers the submission with the usual 429 (an expected class wherever
// Jobs rejections are expected).
func (g *Generator) oneEventJob(ctx context.Context) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.BaseURL+"/jobs?"+g.jobQuery()+"&label=chaos", strings.NewReader(loadDOT))
	if err != nil {
		return "conn"
	}
	resp, err := g.Client.Do(req)
	if class := classify(resp, err); class != "ok" {
		drain(resp)
		return class
	}
	var status struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || status.ID == "" {
		return "job_bad_submit"
	}
	return g.watchJob(ctx, status.ID)
}

// watchJob is the push analogue of pollJob: read the job's SSE stream
// until the terminal event (the per-job stream ends itself right after
// it). The deadline matches pollJob's, so a wedged stream becomes a
// sample, not a stuck worker.
func (g *Generator) watchJob(ctx context.Context, id string) string {
	ctx, cancel := context.WithTimeout(ctx, 8*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.BaseURL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "conn"
	}
	resp, err := g.Client.Do(req)
	if class := classify(resp, err); class != "ok" {
		drain(resp)
		return class
	}
	defer drain(resp)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch strings.TrimSpace(strings.TrimPrefix(sc.Text(), "event:")) {
		case "done":
			return "ok"
		case "failed":
			return "job_failed"
		case "shutdown":
			return "sse_shutdown"
		}
	}
	if ctx.Err() != nil {
		return "timeout"
	}
	// The stream ended without a terminal event: a push-contract breach.
	return "sse_truncated"
}

// pollJob follows a job to done/failed, bounded so a stuck queue turns
// into a sample instead of a wedged worker.
func (g *Generator) pollJob(ctx context.Context, id string) string {
	deadline := time.Now().Add(8 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.BaseURL+"/jobs/"+id, nil)
		if err != nil {
			return "conn"
		}
		resp, err := g.Client.Do(req)
		if class := classify(resp, err); class != "ok" {
			drain(resp)
			return class
		}
		state := resp.Header.Get("X-Job-State")
		drain(resp)
		switch state {
		case "done":
			return "ok"
		case "failed":
			return "job_failed"
		}
		if time.Now().After(deadline) {
			return "job_poll_timeout"
		}
		select {
		case <-ctx.Done():
			return "timeout"
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// drain discards and closes a response body (nil-safe) so the transport
// reuses connections.
func drain(resp *http.Response) {
	if resp != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
