package main

import (
	"bytes"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"antlayer"
	"antlayer/internal/dot"
	"antlayer/internal/graphgen"
	"antlayer/internal/server"
)

// verifyLen is the length of the sequential verify pass that opens every
// run; it is also the number of fixed pairs hot-repeat cycles through
// and the number of graphs in edit-stream's chains, so one pass of
// either is one verify pass.
const verifyLen = 64

// workloadNames lists the workloads in the order a full run visits them.
var workloadNames = []string{"cold-corpus", "hot-repeat", "edit-stream", "distributed"}

// request is one POST /layer: its query, its body and the graph the
// answer is checked against.
type request struct {
	query string
	body  []byte
	graph *graphRef
	// key names the distinct (graph, parameters) pair; hot-repeat checks
	// every cache hit against the first body seen for its key.
	key    int
	render bool
}

// graphRef is a request graph as the daemon parses it, plus the vertex
// index of every name so an answer's layers can be mapped back.
type graphRef struct {
	g     *antlayer.Graph
	names []string
	index map[string]int
}

// workload is one traffic shape. Its request stream is a pure function
// of the benchmark seed: next(i) is the i-th request of a run, the first
// verifyLen of which form the verify pass.
type workload struct {
	name string
	// workers is the number of worker processes started beside a
	// coordinator daemon; 0 runs the daemon alone.
	workers int
	// computes is false when every timed request is a cache hit, so the
	// colony never runs and the in-process replay skips it.
	computes bool
	// exports is true when requests are warm-eligible, so every computed
	// answer also exports its colony state into the warm cache.
	exports bool
	// probe is the set-up request: the workload's query shape on a tiny
	// graph of its own, with warm starts off so it leaves no state that
	// could change a later answer.
	probe request
	next  func(i int) request
}

// newWorkload builds the named workload from the benchmark seed.
func newWorkload(name string, seed int64) (*workload, error) {
	// ACO seeds of the never-repeating workloads: distinct per request
	// and per benchmark seed.
	acoSeed := func(i int) int64 { return seed<<24 + int64(i) }
	switch name {
	case "cold-corpus", "hot-repeat", "distributed":
		corpus, err := corpusGraphs(seed)
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, computes: true}
		shape := "format=edges&warm=false"
		if name == "distributed" {
			shape += "&algo=island&islands=2&distributed=true"
			w.workers = 2
		}
		w.probe, err = probeRequest(shape)
		if err != nil {
			return nil, err
		}
		switch name {
		case "cold-corpus":
			w.next = func(i int) request {
				r := corpus[i%len(corpus)]
				r.query = fmt.Sprintf("%s&seed=%d", shape, acoSeed(i))
				r.key = i
				// One request in eight puts the SVG renderer on the path.
				if i%8 == 7 {
					r.query += "&render=svg"
					r.render = true
				}
				return r
			}
		case "hot-repeat":
			w.computes = false
			w.next = func(i int) request {
				j := i % verifyLen
				r := corpus[j%len(corpus)]
				r.query = fmt.Sprintf("%s&seed=%d", shape, acoSeed(j))
				r.key = j
				return r
			}
		default:
			w.next = func(i int) request {
				r := corpus[i%len(corpus)]
				r.query = fmt.Sprintf("%s&seed=%d", shape, acoSeed(i))
				r.key = i
				return r
			}
		}
		return w, nil
	case "edit-stream":
		chain, err := editChain(seed)
		if err != nil {
			return nil, err
		}
		probe, err := probeRequest("warm=false")
		if err != nil {
			return nil, err
		}
		return &workload{
			name:     name,
			computes: true,
			exports:  true,
			probe:    probe,
			next: func(i int) request {
				r := chain[i%len(chain)]
				// The colony seed is the pass number, so no (graph, seed)
				// pair repeats and every request computes.
				r.query = fmt.Sprintf("algo=aco&seed=%d", i/len(chain)+1)
				r.key = i
				return r
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// corpusGraphs is the paper-shaped sparse corpus, 16 graphs for each
// size n = 10, 15, …, 100, as edge-list request bodies. The sizes are
// interleaved, so every 19 consecutive requests cover all of them; and a
// run cycles over 304 graphs, so no single graph's shape sets its cost.
func corpusGraphs(seed int64) ([]request, error) {
	groups, err := graphgen.CorpusSample(seed, 16)
	if err != nil {
		return nil, err
	}
	var out []request
	for j := range groups[0].Graphs {
		for _, gr := range groups {
			var b bytes.Buffer
			if err := dot.WriteEdgeList(&b, gr.Graphs[j]); err != nil {
				return nil, err
			}
			r, err := newRequest("format=edges", b.Bytes())
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// editChain is 16 edit chains of 4 graphs each, n = 60 with two edits
// per step, as DOT bodies, chain after chain. Vertex names stay stable
// across a chain's edits and carry the chain's prefix, so each chain is
// its own warm-start lineage; sixteen base graphs keep one graph's shape
// from setting a run's cost. An edit step can undo itself, so a graph
// equal to an earlier one of its chain is skipped: every request of a
// pass computes.
func editChain(seed int64) ([]request, error) {
	const chains, length = 16, verifyLen / 16
	var out []request
	for k := 0; k < chains; k++ {
		graphs, names, err := graphgen.DeltaChain(seed*chains+int64(k), 60, 3*length, 2)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for i := 0; i < len(graphs) && len(seen) < length; i++ {
			if c := canonical(graphs[i], names[i]); !seen[c] {
				seen[c] = true
				g := graphs[i].Clone()
				for v, name := range names[i] {
					g.SetLabel(v, fmt.Sprintf("c%d_%s", k, name))
				}
				var b bytes.Buffer
				if err := dot.Write(&b, g, "G"); err != nil {
					return nil, err
				}
				r, err := newRequest("", b.Bytes())
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
		}
		if len(seen) < length {
			return nil, fmt.Errorf("edit chain %d: only %d distinct graphs", k, len(seen))
		}
	}
	return out, nil
}

// canonical is a graph's identity independent of vertex and edge order:
// its sorted vertex names and sorted named edges.
func canonical(g *antlayer.Graph, names []string) string {
	edges := make([]string, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, names[e.U]+" -> "+names[e.V])
	}
	vs := append([]string(nil), names...)
	sort.Strings(vs)
	sort.Strings(edges)
	return strings.Join(vs, ",") + "|" + strings.Join(edges, ",")
}

// probeRequest is the set-up request of a workload with the given query
// shape: a three-vertex graph in the shape's format.
func probeRequest(shape string) (request, error) {
	body := []byte("digraph P { p -> q; q -> r; p -> r; }\n")
	if q, _ := url.ParseQuery(shape); q.Get("format") == "edges" {
		body = []byte("3 3\n0 1\n1 2\n0 2\n")
	}
	r, err := newRequest(shape, body)
	r.query = shape + "&seed=0"
	return r, err
}

// newRequest parses body the way the daemon will, under query.
func newRequest(query string, body []byte) (request, error) {
	q, err := url.ParseQuery(query)
	if err != nil {
		return request{}, err
	}
	req, err := server.ParseRequest(q)
	if err != nil {
		return request{}, err
	}
	g, names, err := server.ParseGraph(req, bytes.NewReader(body))
	if err != nil {
		return request{}, err
	}
	ref := &graphRef{g: g, names: names, index: make(map[string]int, len(names))}
	for v, name := range names {
		ref.index[name] = v
	}
	return request{query: query, body: body, graph: ref}, nil
}
