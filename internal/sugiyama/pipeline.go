package sugiyama

import (
	"errors"
	"fmt"

	"antlayer/internal/dag"
	"antlayer/internal/layering"
)

// Layerer is any layering algorithm usable as the pipeline's second phase.
// All algorithm packages of this repository satisfy it via small adapters
// (see the root antlayer package).
type Layerer interface {
	// Layer assigns the vertices of an acyclic g to layers. It must not
	// modify g, which may be the graph the caller passed to Run.
	Layer(g *dag.Graph) (*layering.Layering, error)
}

// LayererFunc adapts a function to the Layerer interface.
type LayererFunc func(g *dag.Graph) (*layering.Layering, error)

// Layer calls f.
func (f LayererFunc) Layer(g *dag.Graph) (*layering.Layering, error) { return f(g) }

// Config parameterises the pipeline.
type Config struct {
	// Layerer is the layering algorithm; required.
	Layerer Layerer
	// DummyWidth is the width of inserted dummy vertices.
	DummyWidth float64
	// OrderingRounds bounds the crossing-minimisation down/up sweep rounds.
	OrderingRounds int
	// Ordering selects the sweep key (Barycenter or Median).
	Ordering OrderingMethod
	// CoordinateSweeps is the number of priority-method x-coordinate
	// refinement sweeps after initial packing; 0 keeps the packed layout.
	CoordinateSweeps int
	// HSpacing and VSpacing are the drawing grid spacings.
	HSpacing, VSpacing float64
}

// DefaultConfig returns a pipeline around the given layerer with unit dummy
// width, 4 barycenter ordering rounds and 2 coordinate sweeps.
func DefaultConfig(l Layerer) Config {
	return Config{Layerer: l, DummyWidth: 1, OrderingRounds: 4, CoordinateSweeps: 2, HSpacing: 2, VSpacing: 2}
}

// Node is a positioned vertex of the drawing.
type Node struct {
	V     int     // vertex in the proper graph
	X, Y  float64 // centre position
	W     float64 // drawing width
	Layer int     // 1-based layer (Y = (height-Layer)*VSpacing)
	Dummy bool
	Label string
}

// DrawnEdge is an edge of the original graph routed through its dummy
// chain.
type DrawnEdge struct {
	From, To int // original vertices
	Points   []Point
	Reversed bool // true when cycle removal flipped the original edge
}

// Point is a drawing coordinate.
type Point struct{ X, Y float64 }

// Drawing is the pipeline output.
type Drawing struct {
	Nodes     []Node
	Edges     []DrawnEdge
	Crossings int
	Height    int     // layers
	Width     float64 // max layer width incl. dummies
	// Layering is the (normalized) layering of the original graph.
	Layering *layering.Layering
	// Reversed lists original edges flipped by cycle removal.
	Reversed []dag.Edge
}

// Run executes the full pipeline on g, which may contain cycles. It does
// not modify g: an acyclic g is layered as it is, not copied.
func Run(g *dag.Graph, cfg Config) (*Drawing, error) {
	if cfg.Layerer == nil {
		return nil, errors.New("sugiyama: Config.Layerer is required")
	}
	if cfg.DummyWidth <= 0 {
		cfg.DummyWidth = 1
	}
	if cfg.OrderingRounds <= 0 {
		cfg.OrderingRounds = 4
	}
	if cfg.HSpacing <= 0 {
		cfg.HSpacing = 2
	}
	if cfg.VSpacing <= 0 {
		cfg.VSpacing = 2
	}

	// Phase 1: cycle removal.
	acyclic := MakeAcyclic(g)
	reversedSet := make(map[dag.Edge]bool, len(acyclic.Reversed))
	for _, e := range acyclic.Reversed {
		reversedSet[e] = true
	}

	// Phase 2: layering.
	l, err := cfg.Layerer.Layer(acyclic.Graph)
	if err != nil {
		return nil, fmt.Errorf("sugiyama: layering failed: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("sugiyama: layerer returned invalid layering: %w", err)
	}
	l.Normalize()

	// Phase 3: dummy insertion (proper layering).
	proper, err := l.MakeProper(cfg.DummyWidth)
	if err != nil {
		return nil, fmt.Errorf("sugiyama: %w", err)
	}

	// Phase 4: crossing minimisation.
	ord, crossings := MinimizeCrossingsWith(proper.Graph, proper.Layering, cfg.OrderingRounds, cfg.Ordering)

	// Phase 5: coordinates.
	nodes := assignCoordinates(proper, ord, cfg)

	// Route original edges through their chains.
	pos := make([]Point, proper.Graph.N())
	for _, nd := range nodes {
		pos[nd.V] = Point{nd.X, nd.Y}
	}
	var edges []DrawnEdge
	for _, e := range g.Edges() {
		ae := e
		rev := reversedSet[e]
		if rev {
			ae = dag.Edge{U: e.V, V: e.U}
		}
		chain, ok := proper.Chains[ae]
		if !ok {
			chain = []int{ae.U, ae.V}
		}
		pts := make([]Point, len(chain))
		for i, v := range chain {
			pts[i] = pos[v]
		}
		if rev {
			for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
				pts[i], pts[j] = pts[j], pts[i]
			}
		}
		edges = append(edges, DrawnEdge{From: e.U, To: e.V, Points: pts, Reversed: rev})
	}

	return &Drawing{
		Nodes:     nodes,
		Edges:     edges,
		Crossings: crossings,
		Height:    l.Height(),
		Width:     l.WidthIncludingDummies(cfg.DummyWidth),
		Layering:  l,
		Reversed:  acyclic.Reversed,
	}, nil
}

// assignCoordinates places each layer's vertices left-to-right in ordering
// order, packs them with HSpacing gaps centred around x = 0, optionally
// refines the packing with the priority method, and emits the node list.
// y grows downward like SVG: layer h (sources) at y = 0, layer 1 (sinks)
// at the bottom.
func assignCoordinates(proper *layering.Proper, ord *Ordering, cfg Config) []Node {
	h := proper.Layering.NumLayers()
	x := make([]float64, proper.Graph.N())
	for li := h; li >= 1; li-- {
		row := ord.Order[li-1]
		total := 0.0
		for i, v := range row {
			if i > 0 {
				total += cfg.HSpacing
			}
			total += proper.Graph.Width(v)
		}
		cx := -total / 2
		for _, v := range row {
			w := proper.Graph.Width(v)
			x[v] = cx + w/2
			cx += w + cfg.HSpacing
		}
	}
	if cfg.CoordinateSweeps > 0 {
		refineCoordinates(proper, ord, x, cfg, cfg.CoordinateSweeps)
	}
	nodes := make([]Node, 0, proper.Graph.N())
	for li := h; li >= 1; li-- {
		y := float64(h-li) * cfg.VSpacing
		for _, v := range ord.Order[li-1] {
			nodes = append(nodes, Node{
				V:     v,
				X:     x[v],
				Y:     y,
				W:     proper.Graph.Width(v),
				Layer: li,
				Dummy: proper.IsDummy[v],
				Label: proper.Graph.Label(v),
			})
		}
	}
	return nodes
}
