package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/big"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"antlayer"
	"antlayer/internal/core"
	"antlayer/internal/dot"
	"antlayer/internal/obs"
)

// RenderMode selects the optional drawing embedded in a layer response.
type RenderMode string

const (
	RenderNone  RenderMode = "none"
	RenderSVG   RenderMode = "svg"
	RenderASCII RenderMode = "ascii"
)

// Request is a fully parsed and validated layering request: everything
// that determines the response body, plus the per-request timeout (which
// deliberately does not). ParseRequest builds every one: per /layer,
// /jobs or bulk-line call in the daemon, and from the flags of the
// `daglayer layer` and `daglayer batch` CLIs, which spell them as the
// same query. Both daemon and batch feed Compute, so a batch result file
// holds byte-for-byte the body the daemon would have served.
type Request struct {
	Format  string // dot | edges
	Algo    string // aco | island | lpl | minwidth | cg | ns
	Promote bool
	Render  RenderMode
	// Options holds the algorithm knobs, as LayererByName reads them.
	antlayer.Options
	// Distributed asks for algo=island to run on the shard coordinator's
	// worker fleet instead of in-process. It deliberately does not
	// parameterise the response body — the distributed archipelago is
	// byte-identical to the in-process one — so, like Workers and
	// Timeout, it is excluded from the cache key.
	Distributed bool
	// Labels are the job's topics on the async paths (/jobs, /jobs/bulk):
	// every event the job publishes carries them, so a topic stream
	// (GET /events?topic=) sees it. They never influence the computation
	// or its body, so — like Timeout — they are excluded from the cache
	// key. Ignored by the synchronous /layer.
	Labels  []string
	Timeout time.Duration // 0 = server default
	// Warm permits the server's warm-start fast path for this request
	// (the default): a colony request may be seeded from a cached state
	// of the same or a similar graph and run on a reduced tour budget.
	// warm=false forces a cold run. Like Distributed, the knob selects
	// how the answer is computed, not what request it is, so it is
	// excluded from the cache key — but a warm-started computation is
	// cached under a lineage-suffixed key (see Server.warmPlan), never
	// under the cold key, so cold replays stay byte-identical.
	Warm bool
	// Base names the warm-start lineage explicitly: the canonical graph
	// hash (the X-Graph-Key answer of a previous request) whose cached
	// state should seed this run, skipping the similarity probe. Empty
	// means probe. Ignored when Warm is false.
	Base string
}

// DefaultRequest returns the request every unset parameter falls back to.
func DefaultRequest() Request {
	return Request{
		Format:  "dot",
		Algo:    "aco",
		Render:  RenderNone,
		Options: antlayer.Options{DummyWidth: 1, CGWidth: 4, ACO: antlayer.DefaultACOParams()},
		Warm:    true,
	}
}

// colonies is the number of ant colonies the request runs: the
// archipelago size for algo=island, one for algo=aco, none otherwise.
func (req Request) colonies() int {
	switch req.Algo {
	case "aco":
		return 1
	case "island":
		return req.IslandOf().Islands
	}
	return 0
}

// ParseRequest decodes the query parameters of a /layer or /jobs request.
// Unknown parameters are rejected so that typos ("tuors=100") fail loudly
// instead of silently running with defaults, and so are parameters the
// chosen algorithm would refuse: the colony's for aco and island, a
// negative cg-width for cg. The parameters are read in name order, so one
// query always parses to one Request or one error; stall-tours and its
// older spelling stop-stagnant name one knob, and a query may send one.
func ParseRequest(q url.Values) (Request, error) {
	req := DefaultRequest()
	if q.Has("stall-tours") && q.Has("stop-stagnant") {
		return req, fmt.Errorf("query parameters stall-tours and stop-stagnant set one knob: send one of them")
	}
	var err error
	for _, key := range slices.Sorted(maps.Keys(q)) {
		vals := q[key]
		v := vals[len(vals)-1]
		switch key {
		case "format":
			req.Format = v
		case "algo":
			req.Algo = v
		case "promote":
			req.Promote, err = strconv.ParseBool(v)
		case "render":
			req.Render = RenderMode(v)
		case "dummy-width":
			req.DummyWidth, err = dot.ParseWidth(v)
		case "cg-width":
			req.CGWidth, err = strconv.Atoi(v)
		case "ants":
			req.ACO.Ants, err = strconv.Atoi(v)
		case "tours":
			req.ACO.Tours, err = strconv.Atoi(v)
		case "alpha":
			req.ACO.Alpha, err = strconv.ParseFloat(v, 64)
		case "beta":
			req.ACO.Beta, err = strconv.ParseFloat(v, 64)
		case "seed":
			req.ACO.Seed, err = strconv.ParseInt(v, 10, 64)
		case "workers":
			req.ACO.Workers, err = strconv.Atoi(v)
		case "stall-tours", "stop-stagnant":
			req.ACO.StopAfterStagnantTours, err = strconv.Atoi(v)
		case "width-bound":
			req.ACO.WidthBound, err = strconv.ParseFloat(v, 64)
		case "islands":
			req.Islands, err = strconv.Atoi(v)
			if err == nil && req.Islands < 0 {
				err = fmt.Errorf("must be >= 0")
			}
		case "migration-interval":
			req.MigrationInterval, err = strconv.Atoi(v)
			if err == nil && req.MigrationInterval < 0 {
				err = fmt.Errorf("must be >= 0")
			}
		case "distributed":
			req.Distributed, err = strconv.ParseBool(v)
		case "warm":
			req.Warm, err = strconv.ParseBool(v)
		case "base":
			// A canonical graph hash (X-Graph-Key) is 64 hex characters;
			// bound rather than fully validate, so the knob stays format-
			// agnostic if the key scheme ever grows.
			if v == "" || len(v) > 128 {
				return req, fmt.Errorf("query parameter base=%q: want 1-128 characters", v)
			}
			req.Base = v
		case "label":
			// Repeatable: every value becomes a topic. Bounded so a
			// hostile request cannot pin unbounded label bytes to a job.
			for _, l := range vals {
				if l == "" || len(l) > 64 {
					return req, fmt.Errorf("query parameter label=%q: want 1-64 characters", l)
				}
			}
			if len(vals) > 8 {
				return req, fmt.Errorf("query parameter label: at most 8 labels per job, got %d", len(vals))
			}
			req.Labels = vals
		case "timeout-ms":
			var ms int64
			ms, err = strconv.ParseInt(v, 10, 64)
			if err == nil && ms <= 0 {
				err = fmt.Errorf("must be positive")
			}
			// Saturate, not wrap: prepare caps the deadline at MaxTimeout.
			req.Timeout = time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
		default:
			return req, fmt.Errorf("unknown query parameter %q", key)
		}
		if err != nil {
			return req, fmt.Errorf("query parameter %s=%q: %v", key, v, err)
		}
	}
	switch req.Format {
	case "dot", "edges":
	default:
		return req, fmt.Errorf("unknown format %q (want dot|edges)", req.Format)
	}
	switch req.Algo {
	case "aco", "island", "lpl", "minwidth", "cg", "ns":
	default:
		return req, fmt.Errorf("unknown algo %q (want aco|island|lpl|minwidth|cg|ns)", req.Algo)
	}
	switch req.Render {
	case RenderNone, RenderSVG, RenderASCII:
	default:
		return req, fmt.Errorf("unknown render %q (want none|svg|ascii)", req.Render)
	}
	if req.Distributed && req.Algo != "island" {
		return req, fmt.Errorf("distributed=true requires algo=island, got algo=%q", req.Algo)
	}
	if req.Base != "" && req.Algo != "aco" && req.Algo != "island" {
		return req, fmt.Errorf("base= requires a colony algorithm (aco|island), got algo=%q", req.Algo)
	}
	req.ACO.DummyWidth = req.DummyWidth
	// The algorithm's own parameter check runs here, so an invalid
	// request is refused at intake on every path: never after it took a
	// compute slot, never at poll time, and never served from a cache
	// entry whose key ignores the bad knob (Workers). A refusal names the
	// query parameter the client sent, not the colony's field.
	switch req.Algo {
	case "aco":
		err = req.ACO.Validate()
	case "island":
		err = req.IslandOf().Validate()
	case "cg":
		if req.CGWidth < 0 {
			err = badParam(q, "cg-width", "must be >= 1, or 0 for the default 4")
		}
	}
	var fe *core.FieldError
	if errors.As(err, &fe) && colonyKeys[fe.Field] != "" {
		key := colonyKeys[fe.Field]
		if key == "stall-tours" && q.Has("stop-stagnant") {
			key = "stop-stagnant"
		}
		err = badParam(q, key, fe.Rule)
	}
	return req, err
}

// colonyKeys names the query parameter behind each colony field
// ParseRequest sets.
var colonyKeys = map[string]string{
	"Ants": "ants", "Tours": "tours", "Alpha": "alpha", "Beta": "beta", "DummyWidth": "dummy-width",
	"WidthBound": "width-bound", "StopAfterStagnantTours": "stall-tours", "Workers": "workers",
}

// badParam words the refusal of the value q holds under key the way
// every parse error is worded.
func badParam(q url.Values, key, rule string) error {
	vals := q[key]
	return fmt.Errorf("query parameter %s=%q: %s", key, vals[len(vals)-1], rule)
}

// ParseGraph decodes a graph in the request's format, returning the graph
// and a per-vertex name slice (synthesised v<N> names for edge lists,
// which carry none). It refuses a graph whose vertex widths plus
// dummy-width·n·m sum above maxWidthSum.
func ParseGraph(req Request, body io.Reader) (*antlayer.Graph, []string, error) {
	return parseGraph(req, body, nil)
}

// maxWidthSum bounds Σ w(v) + dummy-width·n·m, and with it every layer
// width, every Δ of a move and H+W, so that none of them overflows to
// +Inf (which would fail the JSON body) or drives the colony's objective
// 1/(H+W) to 0.
const maxWidthSum = 1e300

// parseGraph is ParseGraph with an edge-list header check: admit, when
// non-nil, sees the header's vertex count before the graph is allocated
// (dot.ReadEdgeListNamed).
func parseGraph(req Request, body io.Reader, admit func(n int) error) (*antlayer.Graph, []string, error) {
	var (
		g     *antlayer.Graph
		names []string
		err   error
	)
	switch req.Format {
	case "edges":
		g, names, err = dot.ReadEdgeListNamed(body, admit)
	default: // "dot", enforced by ParseRequest
		g, names, err = antlayer.ReadDOT(body)
	}
	if err != nil {
		return nil, nil, err
	}
	sum := req.DummyWidth * float64(g.N()) * float64(g.M())
	for v := range g.N() {
		sum += g.Width(v)
	}
	if !(sum <= maxWidthSum) {
		// Recount without overflow for the message: the float64 sum may
		// have reached +Inf.
		exact := new(big.Float).SetFloat64(req.DummyWidth)
		exact.Mul(exact, big.NewFloat(float64(g.N())))
		exact.Mul(exact, big.NewFloat(float64(g.M())))
		for v := range g.N() {
			exact.Add(exact, big.NewFloat(g.Width(v)))
		}
		return nil, nil, fmt.Errorf("vertex widths plus dummy-width*n*m sum to %.4g, above the bound %g", exact, maxWidthSum)
	}
	return g, names, nil
}

// requestKey is the cache key: a hash over gk, the graph's canonical hash
// (graphKey), and the request as keyed canonicalises it.
//
// Edge order is canonicalised, so the same graph serialised in two edge
// orders maps to one entry. Layer-width accumulation is floating-point and
// per-edge-order, so the two serialisations could in principle produce
// different (equally valid) layerings when computed from scratch; the
// cache pins whichever was computed first, which keeps responses stable —
// a feature, not a loss.
func requestKey(req Request, gk string) string {
	req = req.keyed()
	// The bytes are those of "graph=%s\np algo=%s promote=%t render=%s
	// dummyWidth=%g cgWidth=%d islands=%d interval=%d aco=%+v\n", the
	// format the keys were first defined by (TestKeysMatchFmt).
	b := make([]byte, 0, 512)
	b = append(append(b, "graph="...), gk...)
	b = append(append(b, "\np algo="...), req.Algo...)
	b = strconv.AppendBool(append(b, " promote="...), req.Promote)
	b = append(append(b, " render="...), req.Render...)
	b = strconv.AppendFloat(append(b, " dummyWidth="...), req.DummyWidth, 'g', -1, 64)
	b = strconv.AppendInt(append(b, " cgWidth="...), int64(req.CGWidth), 10)
	b = strconv.AppendInt(append(b, " islands="...), int64(req.Islands), 10)
	b = strconv.AppendInt(append(b, " interval="...), int64(req.MigrationInterval), 10)
	b = append(appendParams(append(b, " aco="...), req.ACO), '\n')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// keyed returns the request as requestKey hashes it: every knob that
// cannot change the body set to one value, so requests that compute the
// same body share one entry.
//
// Workers: the layering is bitwise-identical at any worker count, island
// model included. Warm and ExportState: a cold body never depends on them
// (exporting is a side channel); a warm-started body is cached under this
// key plus a lineage suffix (Server.warmPlan), never under the bare key.
// The island knobs are resolved (defaults applied) for algo=island, so
// ?algo=island and ?algo=island&islands=4&migration-interval=2 share one
// entry, and zeroed for every other algorithm. The algorithms without a
// colony hash the default colony parameters at the request's dummy width.
// Only cg reads cg-width: the others hash the default 4, and cg hashes
// cg-width 0 as the 4 it means. Of the fields outside Options,
// requestKey hashes Algo, Promote and Render: the others choose how the
// graph is read (Format) or how and when the answer is computed, not
// what it is.
func (req Request) keyed() Request {
	def := DefaultRequest()
	req.ACO.Workers, req.ACO.Warm, req.ACO.ExportState = 0, nil, false
	ip := req.IslandOf()
	req.Islands, req.MigrationInterval = 0, 0
	switch req.Algo {
	case "island":
		req.Islands, req.MigrationInterval = ip.Islands, ip.MigrationInterval
	case "aco":
	default:
		req.ACO = def.ACO
		req.ACO.DummyWidth = req.DummyWidth
	}
	if req.Algo != "cg" || req.CGWidth == 0 {
		req.CGWidth = def.CGWidth
	}
	return req
}

// appendParams appends what fmt's %+v writes for p, whose Warm keyed
// has cleared: every field in declaration order as Name:value,
// floats as %g, the modes through their String methods.
func appendParams(b []byte, p antlayer.ACOParams) []byte {
	b = strconv.AppendInt(append(b, "{Ants:"...), int64(p.Ants), 10)
	b = strconv.AppendInt(append(b, " Tours:"...), int64(p.Tours), 10)
	b = strconv.AppendFloat(append(b, " Alpha:"...), p.Alpha, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Beta:"...), p.Beta, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Rho:"...), p.Rho, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Tau0:"...), p.Tau0, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Q:"...), p.Q, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " DummyWidth:"...), p.DummyWidth, 'g', -1, 64)
	b = append(append(b, " Selection:"...), p.Selection.String()...)
	b = strconv.AppendFloat(append(b, " Q0:"...), p.Q0, 'g', -1, 64)
	b = append(append(b, " Stretch:"...), p.Stretch.String()...)
	b = append(append(b, " Heuristic:"...), p.Heuristic.String()...)
	b = strconv.AppendInt(append(b, " MaxLayers:"...), int64(p.MaxLayers), 10)
	b = strconv.AppendFloat(append(b, " WidthBound:"...), p.WidthBound, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " TauMin:"...), p.TauMin, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " TauMax:"...), p.TauMax, 'g', -1, 64)
	b = strconv.AppendInt(append(b, " StopAfterStagnantTours:"...), int64(p.StopAfterStagnantTours), 10)
	b = strconv.AppendBool(append(b, " Warm:<nil> ExportState:"...), p.ExportState)
	b = strconv.AppendInt(append(b, " Workers:"...), int64(p.Workers), 10)
	b = strconv.AppendInt(append(b, " Seed:"...), p.Seed, 10)
	return append(b, '}')
}

// graphKey is the canonical hash of the graph alone — vertex count,
// per-vertex width and name, edges sorted by endpoint — shared by the
// result-cache key (which appends the parameters) and the warm-state
// cache (which is parameter-free: a pheromone matrix learned under one
// tour budget seeds a run under any other). It is echoed to clients as
// X-Graph-Key, the handle the base= knob names a lineage by. The hashed
// bytes are those of "g n=%d\n", "v %d w=%g name=%q\n" per vertex and
// "e %d %d\n" per edge (TestKeysMatchFmt), streamed into the hash a few
// KiB at a time.
func graphKey(g *antlayer.Graph, names []string) string {
	const chunk = 4 << 10
	h := sha256.New()
	b := make([]byte, 0, chunk)
	b = append(strconv.AppendInt(append(b, "g n="...), int64(g.N()), 10), '\n')
	for v := range g.N() {
		b = strconv.AppendInt(append(b, "v "...), int64(v), 10)
		b = strconv.AppendFloat(append(b, " w="...), g.Width(v), 'g', -1, 64)
		b = append(strconv.AppendQuote(append(b, " name="...), names[v]), '\n')
		if len(b) >= chunk {
			h.Write(b)
			b = b[:0]
		}
	}
	// Edges sorted by (u, v): u ascending, each u's successors sorted.
	var succ []int
	for u := range g.N() {
		succ = append(succ[:0], g.Succ(u)...)
		slices.Sort(succ)
		for _, v := range succ {
			b = strconv.AppendInt(append(b, "e "...), int64(u), 10)
			b = append(strconv.AppendInt(append(b, ' '), int64(v), 10), '\n')
			if len(b) >= chunk {
				h.Write(b)
				b = b[:0]
			}
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// layerResponse is the JSON document /layer (and a done job) serves.
// Field order is fixed by the struct, so equal computations marshal to
// equal bytes — the property the cache-hit determinism test pins.
type layerResponse struct {
	Algo    string    `json:"algo"`
	Promote bool      `json:"promote"`
	Graph   graphInfo `json:"graph"`
	Metrics layerInfo `json:"metrics"`
	// Objective, BestTour and ToursRun are reported for algo=aco and
	// algo=island only: the colony's f = 1/(H+W) before promotion, the
	// tour that found the best walk (0 = the LPL seed stood — a
	// meaningful value, hence the pointer: omitempty would swallow it),
	// and the tours actually run, summed over islands (early stopping can
	// end a run before the configured count).
	Objective float64 `json:"objective,omitempty"`
	BestTour  *int    `json:"best_tour,omitempty"`
	ToursRun  int     `json:"tours_run,omitempty"`
	// BestIsland and Islands are reported for algo=island only: the ring
	// index that produced the layering and the archipelago size.
	BestIsland *int       `json:"best_island,omitempty"`
	Islands    int        `json:"islands,omitempty"`
	Layers     [][]string `json:"layers"`
	SVG        string     `json:"svg,omitempty"`
	ASCII      string     `json:"ascii,omitempty"`
}

type graphInfo struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// layerInfo mirrors the paper's five evaluation criteria (§VII).
type layerInfo struct {
	Height      int     `json:"height"`
	WidthIncl   float64 `json:"width_incl"`
	WidthExcl   float64 `json:"width_excl"`
	DummyCount  int     `json:"dummy_count"`
	EdgeDensity int     `json:"edge_density"`
}

// IslandRunner executes an island-model run — the seam through which the
// daemon routes algo=island requests onto the shard coordinator's worker
// fleet. A nil runner means in-process. Whatever the runner, the body
// marshalled from its result is byte-identical, because the distributed
// archipelago is (DESIGN.md §10); the seam selects where the colonies
// burn CPU, never what they produce.
type IslandRunner func(ctx context.Context, g *antlayer.Graph, p antlayer.IslandParams) (*antlayer.IslandResult, error)

// Compute runs the requested algorithm under ctx and marshals the
// response body — the one JSON shape shared by POST /layer, a done
// /jobs/{id} and a `daglayer batch` result file. It reports the colony
// tours executed (0 for the polynomial algorithms) so callers can feed
// their metrics. Only the colonies check ctx; the polynomial algorithms
// and the drawing run to completion, which is why the daemon refuses,
// before they start, an algorithm (computeBound) or a drawing
// (drawingBound) too large for a request. Compute itself draws whatever
// it is given. runIsland executes algo=island runs (nil = in-process; see
// IslandRunner). When the request's colony parameters set ExportState,
// the returned state is the run's final search state (the winning
// island's, for algo=island) — the daemon stores it in the warm cache;
// state is nil otherwise and for the polynomial algorithms. The state
// never appears in the body, so exporting cannot perturb the served
// bytes.
func Compute(ctx context.Context, req Request, g *antlayer.Graph, names []string, runIsland IslandRunner) (body []byte, toursRun int, state *antlayer.ACOState, err error) {
	return compute(ctx, req, g, names, runIsland, false)
}

// compute is Compute; bounded refuses a drawing drawingBound refuses.
func compute(ctx context.Context, req Request, g *antlayer.Graph, names []string, runIsland IslandRunner, bounded bool) (body []byte, toursRun int, state *antlayer.ACOState, err error) {
	if runIsland == nil {
		runIsland = antlayer.IslandColonyRunContext
	}
	resp := layerResponse{
		Algo:    req.Algo,
		Promote: req.Promote,
		Graph:   graphInfo{Vertices: g.N(), Edges: g.M()},
	}
	var l *antlayer.Layering
	var colony *antlayer.ACOResult // the winning colony's result, for aco and island
	switch req.Algo {
	case "aco":
		colony, err = antlayer.AntColonyRunContext(ctx, g, req.ACO)
		if err != nil {
			return nil, 0, nil, err
		}
		toursRun = len(colony.History)
	case "island":
		res, err := runIsland(ctx, g, req.IslandOf())
		if err != nil {
			return nil, 0, nil, err
		}
		colony = &res.Result
		for _, st := range res.PerIsland {
			toursRun += st.ToursRun
		}
		bestIsland := res.BestIsland
		resp.BestIsland = &bestIsland
		resp.Islands = len(res.PerIsland)
	default:
		layerer, err := antlayer.LayererByName(ctx, req.Algo, req.Options)
		if err != nil {
			return nil, 0, nil, err
		}
		if req.Promote {
			layerer = antlayer.WithPromotion(layerer)
		}
		l, err = layerer.Layer(g)
		if err != nil {
			return nil, 0, nil, err
		}
	}
	if colony != nil {
		state = colony.State
		l = colony.Layering
		if req.Promote {
			l = antlayer.Promote(l)
		}
		resp.Objective = colony.Objective
		bestTour := colony.BestTour
		resp.BestTour = &bestTour
		resp.ToursRun = toursRun
	}

	m := l.ComputeMetrics(req.DummyWidth)
	resp.Metrics = layerInfo{
		Height:      m.Height,
		WidthIncl:   m.WidthIncl,
		WidthExcl:   m.WidthExcl,
		DummyCount:  m.DummyCount,
		EdgeDensity: m.EdgeDensity,
	}
	layers := l.Layers()
	resp.Layers = make([][]string, 0, len(layers))
	for _, layer := range layers {
		row := make([]string, len(layer))
		for i, v := range layer {
			row[i] = names[v]
		}
		resp.Layers = append(resp.Layers, row)
	}

	if req.Render != RenderNone {
		if err := render(ctx, req.Render, g, l, &resp, bounded); err != nil {
			return nil, 0, nil, err
		}
	}

	body, err = json.Marshal(resp)
	if err != nil {
		return nil, 0, nil, err
	}
	return append(body, '\n'), toursRun, state, nil
}

// render draws the layering into resp under the "render" span, which
// ends on every path. When bounded, a drawing drawingBound refuses is
// refused with its rejection, before Draw allocates anything.
func render(ctx context.Context, mode RenderMode, g *antlayer.Graph, l *antlayer.Layering, resp *layerResponse, bounded bool) error {
	span := obs.FromContext(ctx).Begin("render")
	defer span.End()
	if bounded {
		if rej := drawingBound(l); rej != nil {
			return rej
		}
	}
	d, err := antlayer.Draw(g, antlayer.Fixed(l), nil)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	var b strings.Builder
	if mode == RenderSVG {
		err = d.WriteSVG(&b)
		resp.SVG = b.String()
	} else {
		err = d.WriteASCII(&b)
		resp.ASCII = b.String()
	}
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	return nil
}
