package layering

import (
	"fmt"
	"strconv"

	"antlayer/internal/dag"
)

// Proper is the result of making a layering proper by inserting dummy
// vertices along edges whose span exceeds one (paper §II).
type Proper struct {
	// Graph is the proper graph: the original vertices 0..n-1 followed by
	// the dummy vertices.
	Graph *dag.Graph
	// Layering assigns every (real and dummy) vertex of Graph to a layer.
	Layering *Layering
	// IsDummy[v] reports whether vertex v of Graph is a dummy vertex.
	IsDummy []bool
	// Chains maps each original long edge to the path of vertices that
	// replaced it, from source to target inclusive.
	Chains map[dag.Edge][]int
	// DummyWidth is the width assigned to every dummy vertex.
	DummyWidth float64
}

// MakeProper inserts dummy vertices along every edge with span > 1 and
// returns the proper graph, its layering, and the edge chains. Dummy
// vertices receive the given width (the nd_width parameter of the paper).
// The input layering must be valid.
func (l *Layering) MakeProper(dummyWidth float64) (*Proper, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if dummyWidth <= 0 {
		return nil, fmt.Errorf("layering: dummy width must be positive, got %g", dummyWidth)
	}
	n := l.g.N()
	dummies := l.DummyCount()
	pg := dag.New(n + dummies)
	for v := 0; v < n; v++ {
		pg.SetWidth(v, l.g.Width(v))
		pg.SetLabel(v, l.g.Label(v))
	}
	assign := make([]int, n, n+dummies)
	copy(assign, l.layer)
	isDummy := make([]bool, n+dummies)
	chains := make(map[dag.Edge][]int)

	var label []byte
	for _, e := range l.g.Edges() {
		span := l.layer[e.U] - l.layer[e.V]
		if span == 1 {
			if err := pg.AddEdge(e.U, e.V); err != nil {
				return nil, err
			}
			continue
		}
		chain := make([]int, 0, span+1)
		chain = append(chain, e.U)
		prev := e.U
		for layer := l.layer[e.U] - 1; layer > l.layer[e.V]; layer-- {
			d := len(assign) // dummies are numbered n, n+1, … in creation order
			pg.SetWidth(d, dummyWidth)
			// The label reads d(u,v)@layer.
			label = strconv.AppendInt(append(label[:0], "d("...), int64(e.U), 10)
			label = strconv.AppendInt(append(label, ','), int64(e.V), 10)
			label = strconv.AppendInt(append(label, ")@"...), int64(layer), 10)
			pg.SetLabel(d, string(label))
			assign = append(assign, layer)
			isDummy[d] = true
			if err := pg.AddEdge(prev, d); err != nil {
				return nil, err
			}
			chain = append(chain, d)
			prev = d
		}
		if err := pg.AddEdge(prev, e.V); err != nil {
			return nil, err
		}
		chain = append(chain, e.V)
		chains[e] = chain
	}

	pl := FromAssignment(pg, assign)
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &Proper{
		Graph:      pg,
		Layering:   pl,
		IsDummy:    isDummy,
		Chains:     chains,
		DummyWidth: dummyWidth,
	}, nil
}

// IsProper reports whether every edge of the layering has span exactly one.
func (l *Layering) IsProper() bool {
	for _, e := range l.g.Edges() {
		if l.layer[e.U]-l.layer[e.V] != 1 {
			return false
		}
	}
	return true
}

// DummyCountOn returns the number of dummy vertices the proper layering
// places on the given layer (1-based).
func (l *Layering) DummyCountOn(layer int) int {
	count := 0
	for _, e := range l.g.Edges() {
		if l.layer[e.V] < layer && layer < l.layer[e.U] {
			count++
		}
	}
	return count
}
