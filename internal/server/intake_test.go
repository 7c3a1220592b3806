package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"antlayer"
	"antlayer/internal/dot"
	"antlayer/internal/graphgen"
)

// postRaw POSTs body to path?query and returns the status and the raw
// response body.
func postRaw(t *testing.T, ts *httptest.Server, path, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path+"?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// wideDOT puts two vertices whose widths sum past maxWidthSum on one
// layer, and wideMsg is its refusal.
const (
	wideDOT = `digraph { a [width=1e308]; b [width=1e308]; }`
	wideMsg = "bad dot input: vertex widths plus dummy-width*n*m sum to 2e+308, above the bound 1e+300"
)

// TestIntakeParity feeds the same inputs to the three intake paths —
// POST /layer, POST /jobs and a /jobs/bulk line — which share one
// preamble: a refused input gets the same status and message from /layer
// and /jobs and the same message on the bulk line, and a good input the
// same body from all three.
func TestIntakeParity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name, query, graph string
		status             int
		msg                string
	}{
		{"unknown parameter", "tuors=100", demoDOT, http.StatusBadRequest,
			`bad request: unknown query parameter "tuors"`},
		{"bad algo", "algo=simplex", demoDOT, http.StatusBadRequest,
			`bad request: unknown algo "simplex" (want aco|island|lpl|minwidth|cg|ns)`},
		{"not a coordinator", "algo=island&distributed=true", demoDOT, http.StatusBadRequest,
			"distributed=true but this daemon is not a coordinator (start it with -coordinator)"},
		{"unparseable dot", "seed=1", "digraph { a -> ", http.StatusBadRequest, "bad dot input: "},
		{"NaN node width", "algo=lpl", `digraph { a [width="NaN"]; b; c; a -> c; b -> c }`, http.StatusBadRequest,
			`bad dot input: dot: bad width "NaN" for node "a": want a finite number >= 0`},
		{"NaN dummy width", "algo=lpl&dummy-width=NaN", demoDOT, http.StatusBadRequest,
			`bad request: query parameter dummy-width="NaN": want a finite number >= 0`},
		{"infinite dummy width", "algo=lpl&dummy-width=Inf", demoDOT, http.StatusBadRequest,
			`bad request: query parameter dummy-width="Inf": want a finite number >= 0`},
		{"negative dummy width", "algo=lpl&dummy-width=-1", demoDOT, http.StatusBadRequest,
			`bad request: query parameter dummy-width="-1": want a finite number >= 0`},
		// Finite widths whose sum overflows: unrefused, each of these would
		// compute and then fail on a +Inf width or a zero objective...
		{"width sum lpl", "algo=lpl", wideDOT, http.StatusBadRequest, wideMsg},
		{"width sum aco", "algo=aco", wideDOT, http.StatusBadRequest, wideMsg},
		{"width sum island", "algo=island", wideDOT, http.StatusBadRequest, wideMsg},
		{"dummy width sum", "algo=lpl&dummy-width=1e308", "digraph { a -> b; b -> c; a -> c; d -> b; d -> c }", http.StatusBadRequest,
			"bad dot input: vertex widths plus dummy-width*n*m sum to 2e+309, above the bound 1e+300"},
		// ...and the bound sees the graph, not the layering: without a
		// long edge, no dummy is drawn, yet the request is refused.
		{"dummy width sum, no long edge", "format=edges&algo=lpl&dummy-width=1e308", "3 2\n1 0\n2 1\n", http.StatusBadRequest,
			"bad edges input: vertex widths plus dummy-width*n*m sum to 6e+308, above the bound 1e+300"},
		// Each algorithm's own parameter check runs at intake, so a job
		// with bad parameters is refused at submission, not at poll time,
		// in the words of the query parameter the client sent.
		{"no ants", "ants=0", demoDOT, http.StatusBadRequest, `bad request: query parameter ants="0": must be >= 1`},
		{"no tours", "tours=0", demoDOT, http.StatusBadRequest, `bad request: query parameter tours="0": must be >= 1`},
		{"negative beta", "beta=-2", demoDOT, http.StatusBadRequest, `bad request: query parameter beta="-2": must be >= 0`},
		{"zero dummy width aco", "dummy-width=0", demoDOT, http.StatusBadRequest,
			`bad request: query parameter dummy-width="0": must be > 0`},
		{"negative stall tours", "stall-tours=-1", demoDOT, http.StatusBadRequest,
			`bad request: query parameter stall-tours="-1": must be >= 0`},
		{"negative stop stagnant", "stop-stagnant=-1", demoDOT, http.StatusBadRequest,
			`bad request: query parameter stop-stagnant="-1": must be >= 0`},
		{"negative workers", "seed=5&workers=-1", demoDOT, http.StatusBadRequest,
			`bad request: query parameter workers="-1": must be >= 0`},
		{"island colony", "algo=island&ants=0", demoDOT, http.StatusBadRequest, `bad request: query parameter ants="0": must be >= 1`},
		// NaN passes every bound and +Inf every lower bound; unrefused,
		// each of these computed a body from NaN scores.
		{"NaN alpha", "alpha=NaN", demoDOT, http.StatusBadRequest, `bad request: query parameter alpha="NaN": must be finite`},
		{"infinite beta", "beta=Inf", demoDOT, http.StatusBadRequest, `bad request: query parameter beta="Inf": must be finite`},
		{"NaN width bound", "width-bound=NaN", demoDOT, http.StatusBadRequest,
			`bad request: query parameter width-bound="NaN": must be finite`},
		{"island NaN alpha", "algo=island&alpha=NaN", demoDOT, http.StatusBadRequest,
			`bad request: query parameter alpha="NaN": must be finite`},
		{"negative cg width", "algo=cg&cg-width=-1", demoDOT, http.StatusBadRequest,
			`bad request: query parameter cg-width="-1": must be >= 1, or 0 for the default 4`},
		// Two spellings of one knob in one query would parse to either
		// value, run to run, under two cache keys.
		{"both stall spellings", "stall-tours=3&stop-stagnant=4", demoDOT, http.StatusBadRequest,
			`bad request: query parameters stall-tours and stop-stagnant set one knob: send one of them`},
	}
	for _, c := range cases {
		lresp, lbody := postRaw(t, ts, "/layer", c.query, c.graph)
		jresp, jbody := postRaw(t, ts, "/jobs", c.query, c.graph)
		if lresp.StatusCode != c.status || jresp.StatusCode != c.status {
			t.Errorf("%s: /layer %d, /jobs %d, want %d", c.name, lresp.StatusCode, jresp.StatusCode, c.status)
		}
		msg := strings.TrimSuffix(string(lbody), "\n")
		if !strings.HasPrefix(msg, c.msg) {
			t.Errorf("%s: /layer says %q, want %q", c.name, msg, c.msg)
		}
		if got := strings.TrimSuffix(string(jbody), "\n"); got != msg {
			t.Errorf("%s: /jobs says %q, /layer %q", c.name, got, msg)
		}
		_, lines := postBulk(t, ts, "", bulkBody([2]string{c.query, c.graph}))
		var res bulkResult
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &res) != nil {
			t.Fatalf("%s: bulk answered %q", c.name, lines)
		}
		if res.State != "failed" || res.Error != msg {
			t.Errorf("%s: bulk line %+v, want failed with %q", c.name, res, msg)
		}
	}

	// The cache key leaves out Workers, so a cached seed=5 answer must not
	// be served to seed=5&workers=-1, which the colony refuses. The check
	// belongs to the colony algorithms: lpl ignores the colony's knobs.
	for _, c := range []struct {
		query  string
		status int
	}{{"seed=5", http.StatusOK}, {"seed=5&workers=-1", http.StatusBadRequest}, {"algo=lpl&ants=0", http.StatusOK}} {
		if resp, body := postRaw(t, ts, "/layer", c.query, demoDOT); resp.StatusCode != c.status {
			t.Errorf("/layer?%s answered %d (%s), want %d", c.query, resp.StatusCode, body, c.status)
		}
	}

	// An oversize body only exists on the HTTP paths: a bulk line is
	// bounded by the line scanner instead. The limit cuts an edge list
	// mid-line, and the cut line must not be parsed as a bad edge.
	for _, big := range []struct{ format, graph string }{
		{"dot", "digraph {" + strings.Repeat(" a -> b;", 64) + " }"},
		{"edges", bigEdgeList(100)},
	} {
		query := "format=" + big.format
		lresp, lbody := postRaw(t, ts, "/layer", query, big.graph)
		jresp, jbody := postRaw(t, ts, "/jobs", query, big.graph)
		if lresp.StatusCode != http.StatusRequestEntityTooLarge || jresp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s: /layer %d, /jobs %d, want 413", big.format, lresp.StatusCode, jresp.StatusCode)
		}
		if want := "graph larger than 256 bytes\n"; string(lbody) != want || string(jbody) != want {
			t.Errorf("oversize %s: /layer %q, /jobs %q, want %q", big.format, lbody, jbody, want)
		}
	}
}

// TestIntakeParityGoodInput: one good input served by each path on a
// fresh daemon — so each computes instead of replaying a cache — comes
// back as the same bytes.
func TestIntakeParityGoodInput(t *testing.T) {
	const query = "seed=11&tours=4&render=ascii"
	_, ts := newTestServer(t, Config{})
	lresp, layer := postRaw(t, ts, "/layer", query, demoDOT)
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("/layer answered %d: %s", lresp.StatusCode, layer)
	}

	_, ts = newTestServer(t, Config{})
	resp, status := postJob(t, ts, query, demoDOT)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/jobs answered %d: %s", resp.StatusCode, status.raw)
	}
	if _, done := pollUntilTerminal(t, ts, status.ID); !bytes.Equal(done.raw, layer) {
		t.Errorf("done job body differs from /layer:\n%s\n%s", done.raw, layer)
	}

	_, ts = newTestServer(t, Config{})
	_, lines := postBulk(t, ts, "", bulkBody([2]string{query, demoDOT}))
	if len(lines) != 1 || lines[0]+"\n" != string(layer) {
		t.Errorf("bulk line differs from /layer:\n%q\n%s", lines, layer)
	}
}

// TestRequestKeysGolden pins the cache and graph keys fixed requests are
// served under: a DOT island request, an edge list, and an aco request
// with every key-relevant knob off its default. Clients send X-Graph-Key
// back as base=, and cached bodies are filed under X-Cache-Key, so the
// key scheme is a compatibility contract: a change to how keys are
// derived shows up here.
func TestRequestKeysGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, query, graph   string
		wantCache, wantGraph string
	}{
		{"dot island", "seed=3&tours=5&algo=island&islands=2", demoDOT,
			"7a06fb9174a9ff827dad04e65181b2023e3870fd62b423655617e524b5147da8",
			"5aa3350d1b2e9124012afb02b04031ccf76c250d404fea86cf89cf20ff468a87"},
		{"edge list", "format=edges&warm=false&seed=7", "6 6\n1 0\n2 0\n3 1\n4 1\n5 2\n5 4\n",
			"2d68e8fef0a1631eefeb48931eb88dfa259b3605980ce654d7b5450b046e03fb",
			"e394dff5efefd24f57ae4cd5cc5a15efcdcb0efd5d21ac5ab74f4e8613a04ea5"},
		{"aco knobs", "alpha=1.5&beta=2.5&stall-tours=3&width-bound=7.5&dummy-width=0.5&cg-width=3&promote=true&render=ascii&seed=-9", demoDOT,
			"c75d11325a6200fc48c6a926d67748e58c30f5266b195cff2d17d0b8ecb55e12",
			"5aa3350d1b2e9124012afb02b04031ccf76c250d404fea86cf89cf20ff468a87"},
	}
	for _, c := range cases {
		resp, body := postRaw(t, ts, "/layer", c.query, c.graph)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /layer answered %d: %s", c.name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache-Key"); got != c.wantCache {
			t.Errorf("%s: X-Cache-Key = %s, want %s", c.name, got, c.wantCache)
		}
		if got := resp.Header.Get("X-Graph-Key"); got != c.wantGraph {
			t.Errorf("%s: X-Graph-Key = %s, want %s", c.name, got, c.wantGraph)
		}
	}
}

// TestKeysIgnoreUnreadKnobs: a knob the chosen algorithm does not read
// changes no body, so it changes no key either. The colony parameters
// are ignored by the algorithms without a colony, cg-width by every
// algorithm but cg, and cg reads cg-width 0 as its default 4: each pair
// is served one body from one cache entry.
func TestKeysIgnoreUnreadKnobs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pairs := [][2]string{
		{"algo=lpl", "algo=lpl&seed=5"},
		{"algo=ns", "algo=ns&tours=3&ants=2"},
		{"algo=minwidth", "algo=minwidth&beta=2"},
		{"algo=cg", "algo=cg&cg-width=0"},
		{"seed=5", "seed=5&cg-width=3"},
		{"algo=island", "algo=island&cg-width=3"},
		{"algo=lpl", "algo=lpl&cg-width=3"},
	}
	bodies := map[string]bool{}
	for _, p := range pairs {
		first, body := postRaw(t, ts, "/layer", p[0], demoDOT)
		second, again := postRaw(t, ts, "/layer", p[1], demoDOT)
		if first.StatusCode != http.StatusOK || second.StatusCode != http.StatusOK {
			t.Fatalf("%s: answered %d and %d", p, first.StatusCode, second.StatusCode)
		}
		if a, b := first.Header.Get("X-Cache-Key"), second.Header.Get("X-Cache-Key"); a != b {
			t.Errorf("%s: X-Cache-Key %s, then %s", p, a, b)
		}
		if got := second.Header.Get("X-Cache"); got != "hit" || !bytes.Equal(body, again) {
			t.Errorf("%s: second answer X-Cache %q, same body %t", p, got, bytes.Equal(body, again))
		}
		bodies[p[0]] = true
	}
	if got := s.Metrics().CacheEntries; got != len(bodies) {
		t.Errorf("cache_entries = %d for %d bodies", got, len(bodies))
	}
}

// TestPrepareBoundsColonyMemory: a request whose colonies would hold more
// than maxRequestBytes is refused 413 before anything is allocated — a
// wide graph under a tiny colony, a small graph under a huge one, an ant
// count that would overflow the estimate, and a tour count whose History
// alone would — while an ordinary island request passes.
func TestPrepareBoundsColonyMemory(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		query, graph string
		refused      bool
	}{
		{"format=edges&tours=1&ants=2", bigEdgeList(6000), true},
		{"format=edges&tours=1&ants=200000", bigEdgeList(100), true},
		{"format=edges&ants=9223372036854775807", bigEdgeList(100), true},
		{"algo=aco&ants=1&tours=2000000000&timeout-ms=120000&warm=false", "digraph { a -> b; b -> c; a -> c }", true},
		{"format=edges&algo=island&islands=4", bigEdgeList(100), false},
		{"format=edges&algo=lpl", bigEdgeList(6000), false},
	}
	for _, c := range cases {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		_, rej := s.prepare(q, strings.NewReader(c.graph), nil)
		switch {
		case c.refused && (rej == nil || rej.status != http.StatusRequestEntityTooLarge):
			t.Errorf("%s: rejection %+v, want 413", c.query, rej)
		case c.refused && !strings.HasSuffix(rej.msg, "exceeds the 256 MiB limit"):
			t.Errorf("%s: message %q names no estimate and limit", c.query, rej.msg)
		case !c.refused && rej != nil:
			t.Errorf("%s: refused: %+v", c.query, rej)
		}
	}
}

// TestPrepareBoundsAtHeader: an edge list whose header alone breaks its
// algorithm's bound is refused at the header — with the 413 the built
// graph would get — before a vertex of it is allocated: the colony
// estimate, the linear estimate of lpl and ns, and the vertex cap of the
// quadratic-time minwidth and cg. Building the graph first would cost the
// 10-byte colony body 4M vertices and their names, some 400 MB; computing
// the minwidth one would take minutes.
func TestPrepareBoundsAtHeader(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, c := range []struct{ algo, header, want string }{
		{"aco", "4194304 0\n", "colony memory estimate 2.684e+08 MiB (n=4194304, ants=10, tours=10, colonies=1) exceeds the 256 MiB limit"},
		{"lpl", "1048576 0\n", "lpl memory estimate 384 MiB (n=1048576) exceeds the 256 MiB limit"},
		{"ns", "1048576 0\n", "ns memory estimate 384 MiB (n=1048576) exceeds the 256 MiB limit"},
		{"minwidth", "1048576 0\n", "minwidth running time grows with n²: n=1048576 exceeds the 7000-vertex limit"},
		{"cg", "8000 0\n", "cg running time grows with n²: n=8000 exceeds the 7000-vertex limit"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, rej := s.prepare(url.Values{"format": {"edges"}, "algo": {c.algo}}, strings.NewReader(c.header), nil)
		runtime.ReadMemStats(&after)
		if rej == nil || rej.status != http.StatusRequestEntityTooLarge || rej.msg != c.want {
			t.Errorf("%s: rejection %+v, want 413 %q", c.algo, rej, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: refusing the header allocated %d bytes, want < 1 MiB", c.algo, alloc)
		}
	}
}

// TestGraphKeyStreams: graphKey streams the key text into the hash
// instead of building it whole, so keying a graph allocates a few KiB
// however large it is, and the streamed key is still the fmt one. The
// text here is some 2.6 MB.
func TestGraphKeyStreams(t *testing.T) {
	const n = 1 << 16
	g := antlayer.NewGraph(n)
	names := make([]string, n)
	for v := range n {
		names[v] = "v" + strconv.Itoa(v)
		if v > 0 {
			if err := g.AddEdge(v-1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := graphKey(g, names)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 256<<10 {
		t.Errorf("keying n=%d allocated %d bytes, want < 256 KiB", n, alloc)
	}
	if want := oracleGraphKey(g, names); got != want {
		t.Errorf("graphKey %s, fmt %s", got, want)
	}
}

// TestTimeoutSaturates: a timeout-ms too large for a time.Duration asks
// for the longest deadline allowed, MaxTimeout, instead of wrapping to a
// negative value that falls back to the default.
func TestTimeoutSaturates(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, ms := range []string{"9223372036854775807", "18446744073709"} {
		c, rej := s.prepare(url.Values{"timeout-ms": {ms}}, strings.NewReader(demoDOT), nil)
		if rej != nil {
			t.Fatalf("timeout-ms=%s refused: %+v", ms, rej)
		}
		if c.timeout != s.cfg.MaxTimeout {
			t.Errorf("timeout-ms=%s: deadline %v, want MaxTimeout %v", ms, c.timeout, s.cfg.MaxTimeout)
		}
	}
}

// FuzzParseRequest: whatever the query, ParseRequest either refuses it
// or returns a request inside the documented bounds, a finite dummy width
// >= 0 and finite colony knobs among them, and parsing it again gives the
// same answer.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"",
		"timeout-ms=9223372036854775807",
		"timeout-ms=18446744073709",
		"timeout-ms=0",
		"algo=island&islands=-1",
		"algo=island&migration-interval=-3",
		"algo=island&distributed=true&islands=6&tours=8&seed=42",
		"format=edges&render=svg&promote=true&dummy-width=0.5",
		"dummy-width=NaN",
		"dummy-width=-Inf",
		"dummy-width=-1",
		"dummy-width=0",
		"label=a&label=b&base=5aa3350d1b2e9124012afb02b04031ccf76c250d404fea86cf89cf20ff468a87",
		"stall-tours=3&stop-stagnant=4&width-bound=2&warm=false",
		"tuors=100",
		"ants=0&beta=-2&workers=-1",
		"algo=cg&cg-width=-1",
		"alpha=NaN",
		"beta=Inf",
		"width-bound=NaN",
		"algo=island&alpha=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		req, err := ParseRequest(q)
		again, errAgain := ParseRequest(q)
		// Printed, not compared: a NaN knob the algorithm does not read
		// would differ from itself.
		first, second := fmt.Sprintf("%+v %v", req, err), fmt.Sprintf("%+v %v", again, errAgain)
		if first != second {
			t.Fatalf("%q parsed twice: %s, then %s", raw, first, second)
		}
		if err != nil {
			return
		}
		switch {
		case req.Format != "dot" && req.Format != "edges":
			t.Fatalf("format %q accepted", req.Format)
		case !slices.Contains([]string{"aco", "island", "lpl", "minwidth", "cg", "ns"}, req.Algo):
			t.Fatalf("algo %q accepted", req.Algo)
		case req.Render != RenderNone && req.Render != RenderSVG && req.Render != RenderASCII:
			t.Fatalf("render %q accepted", req.Render)
		case req.Islands < 0 || req.MigrationInterval < 0:
			t.Fatalf("islands=%d migration-interval=%d accepted", req.Islands, req.MigrationInterval)
		case !(req.DummyWidth >= 0 && req.DummyWidth <= math.MaxFloat64):
			t.Fatalf("dummy width %g accepted from %q", req.DummyWidth, raw)
		case req.Timeout < 0:
			t.Fatalf("negative timeout %v from %q", req.Timeout, raw)
		case len(req.Base) > 128 || len(req.Labels) > 8:
			t.Fatalf("base of %d bytes, %d labels accepted", len(req.Base), len(req.Labels))
		case req.Algo == "aco" && req.ACO.Validate() != nil,
			req.Algo == "island" && req.IslandOf().Validate() != nil,
			req.Algo == "cg" && req.CGWidth < 0:
			t.Fatalf("parameters %s would refuse accepted from %q", req.Algo, raw)
		}
		for _, l := range req.Labels {
			if l == "" || len(l) > 64 {
				t.Fatalf("label %q accepted", l)
			}
		}
		if req.Algo == "aco" || req.Algo == "island" {
			for _, x := range []float64{req.ACO.Alpha, req.ACO.Beta, req.ACO.WidthBound, req.ACO.DummyWidth} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("colony knob %g accepted from %q", x, raw)
				}
			}
		}
	})
}

// BenchmarkIntake measures prepare — query, graph decode, both keys and
// the warm plan — on the two bodies the ledger's request-bound workloads
// send: the 424-byte n=55 corpus edge list under hot-repeat's query, and
// an n=60 edit-chain DOT body under edit-stream's algorithm.
func BenchmarkIntake(b *testing.B) {
	edges := corpusEdgeList(b, 55)
	chain, names, err := graphgen.DeltaChain(7, 60, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	g := chain[0].Clone()
	for v, name := range names[0] {
		g.SetLabel(v, "c0_"+name)
	}
	var dotBody bytes.Buffer
	if err := dot.Write(&dotBody, g, "G"); err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	for _, c := range []struct {
		name, query string
		body        []byte
	}{
		{"edges", "format=edges&warm=false&seed=117440512", edges},
		{"dot", "algo=aco&warm=false", dotBody.Bytes()},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, rej := s.prepare(q, bytes.NewReader(c.body), nil); rej != nil {
					b.Fatalf("refused: %+v", rej)
				}
			}
		})
	}
}

// corpusEdgeList is the edge list of the first n-vertex graph of the seed-7
// corpus sample: for n=55, the 424-byte body BenchmarkIntake and
// BenchmarkRender send.
func corpusEdgeList(tb testing.TB, n int) []byte {
	tb.Helper()
	groups, err := graphgen.CorpusSample(7, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var edges bytes.Buffer
	for _, gr := range groups {
		if gr.Vertices == n {
			if err := dot.WriteEdgeList(&edges, gr.Graphs[0]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return edges.Bytes()
}

// BenchmarkRender measures Compute on the n=55 corpus edge list under
// algo=lpl&render=svg: a layering that costs microseconds, so the drawing
// — crossing minimisation, coordinates, the SVG writer and the JSON
// escaping of the SVG — is nearly all of it.
func BenchmarkRender(b *testing.B) {
	q, err := url.ParseQuery("format=edges&algo=lpl&render=svg")
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	c, rej := s.prepare(q, bytes.NewReader(corpusEdgeList(b, 55)), nil)
	if rej != nil {
		b.Fatalf("refused: %+v", rej)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := Compute(context.Background(), c.req, c.g, c.names, nil); err != nil {
			b.Fatal(err)
		}
	}
}
